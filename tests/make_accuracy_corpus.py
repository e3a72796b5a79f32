#!/usr/bin/env python3
"""Write `tests/accuracy_corpus.json`: reference values of the headline
numbers, computed without the package's routes, for `test_accuracy.py`.

    python tests/make_accuracy_corpus.py

Each point is a thermal-closed run of the sine opening (duration 1).  Its
reference values come from the law in n = eta - 1,

    n' = -g n + g nu(theta(s)),   theta(s) = theta0 r omega(s)/omega1,

integrated by scipy's DOP853 at rtol 1e-13 over the ramp [0, 1], and in
the hold (s >= 1, theta = theta0) from the closed form
n(s) = nu_h + (n_h - nu_h) exp(-g (s - 1)).  They are

- `min_t_ratio`: the least T_ratio = theta(s)/log1p(1/n(s)), by bounded
  Brent (xatol 1e-12) within one sample of the record's argmin;
- `recovery_s`: where the hold's closed form reaches
  `solver.RECOVERY_TARGET`, s = 1 + ln((nu_h - n_h)/(nu_h - n*))/g with
  n* = 1/expm1(theta0/target);
- `mean_n`: n at a few samples s <= 3.

The tolerances are per region of theta0 and per quantity, absolute for
min T_ratio and recovery and relative for mean_n: between 1 and 1.5
times the worst error the package makes in that region, which the script
prints.  They are written here, not derived from the run, and the script
writes nothing while a worst error lies outside that band: a change that
makes an error larger fails, and one that makes it much smaller asks
for the tolerance to be tightened by hand.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "accuracy_corpus.json"

# (theta0, r, g, horizon, region): the headline accuracy table's seven points
POINTS = (
    (0.032, 2.0, 1.0, 10.0, "classical"),
    (0.032, 2.0, 0.3, 18.5, "classical"),
    (0.1, 5.0, 10.0, 10.0, "classical"),
    (0.01, 3.0, 0.1, 55.6, "classical"),
    (1.0, 2.0, 3.0, 10.0, "crossover"),
    (5.0, 2.0, 1.0, 10.0, "crossover"),
    (13.0, 2.0, 1.0, 10.0, "quantum"),
)
MEAN_N_AT = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0)
TOLERANCES = {
    "classical": {"min_t_ratio": 2.1e-8, "recovery_s": 3.1e-7, "mean_n": 3.7e-12},
    "crossover": {"min_t_ratio": 1.3e-8, "recovery_s": 1.3e-7, "mean_n": 1.8e-10},
    "quantum": {"min_t_ratio": 1.6e-8, "recovery_s": 2.5e-6, "mean_n": 1e-3},
}


def reference(theta0, r, g, horizon, argmin_s, spacing):
    """The reference values of one point, given the record's argmin and
    sample spacing."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import minimize_scalar

    from molcool.profiles import FrequencyProfile, omega_at
    from molcool.solver import RECOVERY_TARGET

    opening = FrequencyProfile()

    def theta(s):
        return theta0 * r * omega_at(opening, s, r)

    def nu(th):
        return 1.0 / np.expm1(th)

    ramp = solve_ivp(
        lambda s, n: g * (nu(theta(s)) - n), (0.0, 1.0), [nu(theta0 * r)], "DOP853",
        rtol=1e-13, atol=1e-300, dense_output=True,
    )
    n_h, nu_h = float(ramp.y[0, -1]), float(nu(theta0))

    def n_at(s):
        if s <= 1.0:
            return float(ramp.sol(s)[0])
        return nu_h + (n_h - nu_h) * math.exp(-g * (s - 1.0))

    def t_ratio(s):
        return float(theta(s)) / math.log1p(1.0 / n_at(s))

    lo, hi = max(0.0, argmin_s - spacing), min(horizon, argmin_s + spacing)
    found = minimize_scalar(t_ratio, bounds=(lo, hi), method="bounded",
                            options={"xatol": 1e-12})
    n_star = 1.0 / math.expm1(theta0 / RECOVERY_TARGET)
    return {
        "min_t_ratio": float(found.fun),
        "argmin_s": float(found.x),
        "recovery_s": 1.0 + math.log((nu_h - n_h) / (nu_h - n_star)) / g,
        "mean_n": {str(s): n_at(s) for s in MEAN_N_AT},
    }


def errors(point, result):
    """|printed - true| of each quantity of a `run_cycle` result, the
    worst mean_n relative."""
    record = result.record
    spacing = float(record.s[1] - record.s[0])
    at = [int(round(float(s) / spacing)) for s in point["mean_n"]]
    return {
        "min_t_ratio": abs(result.summary.min_t_ratio - point["min_t_ratio"]),
        "recovery_s": abs(result.summary.recovery.s - point["recovery_s"]),
        "mean_n": max(
            abs(float(record.mean_n[k]) / n - 1.0) for k, n in zip(at, point["mean_n"].values())
        ),
    }


def run(theta0, r, g, horizon):
    from molcool.cycle import CycleConfig, run_cycle
    from molcool.units import DimensionlessParams

    return run_cycle(CycleConfig(DimensionlessParams(theta0, r, g), horizon=horizon))


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    points, worst = [], {region: {} for region in TOLERANCES}
    for theta0, r, g, horizon, region in POINTS:
        result = run(theta0, r, g, horizon)
        spacing = float(result.record.s[1] - result.record.s[0])
        point = {"theta0": theta0, "r": r, "g": g, "horizon": horizon, "region": region,
                 **reference(theta0, r, g, horizon, result.summary.argmin_s, spacing)}
        points.append(point)
        for name, error in errors(point, result).items():
            worst[region][name] = max(worst[region].get(name, 0.0), error)
    for region, measured in worst.items():
        for name, error in measured.items():
            tolerance = TOLERANCES[region][name]
            print(f"{region:9} {name:11} worst {error:.3g}  tolerance {tolerance:.3g}")
            if not error <= tolerance <= 1.5 * error:
                raise SystemExit(f"{region} {name}: tolerance {tolerance:.3g} is not within "
                                 f"1 to 1.5 times today's worst error {error:.3g}")
    CORPUS.write_text(json.dumps({"tolerances": TOLERANCES, "points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
