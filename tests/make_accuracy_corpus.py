#!/usr/bin/env python3
"""Write `tests/accuracy_corpus.json`: reference values of the headline
numbers, computed without the package's routes, for `test_accuracy.py`.

    python tests/make_accuracy_corpus.py

Each answered point is a run of an opening (the sine of duration 1,
piecewise-linear breakpoints, or a `shape` that jumps open at s = 0: the
constant `level` or the reversed sine), thermal-closed or, with a `dwell`, from
the finite-dwell plan: the reversed-sine closing over [-1 - dwell,
-dwell] from the thermal state at the open frequency, then the closed
dwell.  Its reference values come from the law in n = eta - 1,

    n' = -g n + g nu(theta(s)),   theta(s) = theta0 r omega(s)/omega1,

integrated by scipy's DOP853 at rtol 1e-13 over each ramp piece between
the opening's kinks (and over the closing), and, where theta holds (the
dwell, and the hold from the opening's last kink on), from the closed
form n(s) = nu_h + (n_a - nu_h) exp(-g (s - a)).  They are

- `min_t_ratio`: the least T_ratio = theta(s)/log1p(1/n(s)), by bounded
  Brent (xatol 1e-12) within one sample of the record's argmin;
- `recovery_s`: where the hold's closed form reaches
  `solver.RECOVERY_TARGET`, s = a + ln((nu_h - n_a)/(nu_h - n*))/g with
  n* = 1/expm1(theta_h/target); where T_ratio reaches the target on the
  ramp, its root there by Brent (xtol 1e-14); or the argmin where the
  least T_ratio is already at or above the target;
- `mean_n`: n at a few samples s <= min(3, horizon).

The tolerances are per region and per quantity, absolute for min
T_ratio and recovery and relative for mean_n: between 1 and 1.5 times
the worst error the package makes in that region, which the script
prints.  They are written here, not derived from the run, and the script
writes nothing while a worst error lies outside that band: a change that
makes an error larger fails, and one that makes it much smaller asks
for the tolerance to be tightened by hand.

A refused point stores the start of the message it is refused with.  A
change that makes it answer fails the test, and the point then gets its
reference values.
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
# the corners: a finite dwell and a breakpoint strictly inside a sample
# interval (600.5 samples in) at the reference point, a stiff coupling, and
# the openings that jump at s = 0, weak and (the constant one) stiff
CORNERS = (
    {"theta0": 0.032, "r": 2.0, "g": 1.0, "horizon": 10.0, "region": "dwell", "dwell": 1.0},
    {"theta0": 0.032, "r": 2.0, "g": 1.0, "horizon": 10.0, "region": "kink",
     "breakpoints": [[0.0, 1.0], [0.30025, 0.75], [1.0, 0.5]]},
    {"theta0": 0.032, "r": 2.0, "g": 3e3, "horizon": 2.0, "region": "stiff"},
    {"theta0": 0.032, "r": 2.0, "g": 1.0, "horizon": 10.0, "region": "constant",
     "shape": "constant", "level": 0.5},
    {"theta0": 0.032, "r": 2.0, "g": 1.0, "horizon": 10.0, "region": "reversed",
     "shape": "reversed-sine-closing"},
    {"theta0": 0.032, "r": 2.0, "g": 3e3, "horizon": 2.0, "region": "stiff constant",
     "shape": "constant", "level": 0.5},
)
# the log grids' slices so far: theta0 in {1e-3, 0.1, 3} x g in {1, 10, 100}
# at r in {3, 1.2, 8} and horizon 10, each (r, theta0) row its own region
GRID = tuple(
    {"theta0": theta0, "r": r, "g": g, "horizon": 10.0,
     "region": f"grid r={r:g} theta0={theta0:g}"}
    for r in (3.0, 1.2, 8.0) for theta0 in (1e-3, 0.1, 3.0) for g in (1.0, 10.0, 100.0)
) + tuple(
    # and at r in {3, 1.2, 8}, g at both ends of the envelope, each (r, g) its own region
    {"theta0": theta0, "r": r, "g": g, "horizon": 10.0, "region": f"grid r={r:g} g={g:g}"}
    for r in (3.0, 1.2, 8.0) for g in (1e-2, 3e3) for theta0 in (1e-3, 0.1, 3.0)
)
# held from s = 0 at theta0 in {1e-3, 0.1, 3}, r = 3 and g = 1: behind a ramp
# (the finite dwell's closed dwell, dwell 3) and with no ramp (the constant
# opening at level 1/3), each its own region
HELD = tuple(
    {"theta0": theta0, "r": 3.0, "g": 1.0, "horizon": 10.0, "region": region, **opening}
    for region, opening in (("held dwell=3", {"dwell": 3.0}),
                            ("held level=1/3", {"shape": "constant", "level": 1.0 / 3.0}))
    for theta0 in (1e-3, 0.1, 3.0)
)
# the envelope's ends, each with the start of the message it is refused with
REFUSED = (
    {"theta0": 0.032, "r": 2.0, "g": 1e4, "horizon": 2.0, "region": "refused",
     "refused": "coupling too stiff for the kernel quadrature: g D = 5 per sample interval"},
    {"theta0": 14.0, "r": 2.0, "g": 1.0, "horizon": 10.0, "region": "refused",
     "refused": "eta0 must exceed 1 + 1e-12 (the ground-state limit)"},
)
MEAN_N_AT = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0)
TOLERANCES = {
    "classical": {"min_t_ratio": 2.1e-8, "recovery_s": 3.1e-7, "mean_n": 3.7e-12},
    "crossover": {"min_t_ratio": 1.3e-8, "recovery_s": 1.3e-7, "mean_n": 1.8e-10},
    "quantum": {"min_t_ratio": 1.6e-8, "recovery_s": 2.5e-6, "mean_n": 1e-3},
    "dwell": {"min_t_ratio": 2.0e-8, "recovery_s": 4.6e-9, "mean_n": 2.0e-12},
    "kink": {"min_t_ratio": 2.4e-9, "recovery_s": 2.0e-8, "mean_n": 3.8e-12},
    # the least T_ratio is above the target: recovery is the argmin, to a sample
    "stiff": {"min_t_ratio": 1.8e-11, "recovery_s": 2.2e-4, "mean_n": 2.3e-12},
    # the jump puts the least T_ratio at s = 0, 0.5 exactly, where the record prints it
    "constant": {"min_t_ratio": 0.0, "recovery_s": 2.5e-8, "mean_n": 2.0e-12},
    "reversed": {"min_t_ratio": 0.0, "recovery_s": 2.6e-9, "mean_n": 2.2e-12},
    # recovery within a few samples of the jump: the record's straight line, to a sample
    "stiff constant": {"min_t_ratio": 0.0, "recovery_s": 1.2e-4, "mean_n": 1.9e-12},
    # the log grid's rows, g in {1, 10, 100}
    "grid r=3 theta0=0.001": {"min_t_ratio": 6.1e-8, "recovery_s": 4.0e-7, "mean_n": 1.6e-12},
    "grid r=3 theta0=0.1": {"min_t_ratio": 9.5e-9, "recovery_s": 3.9e-7, "mean_n": 1.8e-12},
    "grid r=3 theta0=3": {"min_t_ratio": 1.7e-8, "recovery_s": 4.1e-7, "mean_n": 5.6e-11},
    # at r = 1.2 and g = 100 the least T_ratio is above the target: recovery
    # is the argmin, to a sample
    "grid r=1.2 theta0=0.001": {"min_t_ratio": 2.7e-9, "recovery_s": 1.9e-4, "mean_n": 6.7e-13},
    "grid r=1.2 theta0=0.1": {"min_t_ratio": 3.7e-9, "recovery_s": 1.9e-4, "mean_n": 7.6e-13},
    "grid r=1.2 theta0=3": {"min_t_ratio": 5.4e-9, "recovery_s": 2.5e-4, "mean_n": 4.6e-12},
    "grid r=8 theta0=0.001": {"min_t_ratio": 1.8e-8, "recovery_s": 1.7e-7, "mean_n": 3.4e-12},
    "grid r=8 theta0=0.1": {"min_t_ratio": 1.2e-7, "recovery_s": 4.0e-8, "mean_n": 5.2e-12},
    # the closed theta0 r = 24 leaves n ~ 4e-11, whose digits eta - 1 loses
    "grid r=8 theta0=3": {"min_t_ratio": 1.4e-7, "recovery_s": 2.9e-7, "mean_n": 6.2e-5},
    # the grid's g ends at r = 3, theta0 in {1e-3, 0.1, 3}: at g = 0.01 the
    # recovery lies past the horizon (s ~ 467-541), so the run must report
    # none; at g = 3e3 the least T_ratio is above the target, so recovery
    # is the argmin, to a sample
    "grid r=3 g=0.01": {"min_t_ratio": 4.2e-8, "recovery_s": 0.0, "mean_n": 3.3e-10},
    "grid r=3 g=3000": {"min_t_ratio": 7.8e-11, "recovery_s": 3.1e-4, "mean_n": 1.6e-12},
    # the same ends at r = 1.2 and 8: at g = 0.01 recovery lies past the
    # horizon (s ~ 390-568), at g = 3e3 it is the argmin, to a sample; at
    # r = 8, theta0 = 3 the closed theta0 r = 24 leaves n ~ 4e-11, whose
    # digits eta - 1 loses
    "grid r=1.2 g=0.01": {"min_t_ratio": 9.4e-9, "recovery_s": 0.0, "mean_n": 1.3e-11},
    "grid r=1.2 g=3000": {"min_t_ratio": 1.1e-12, "recovery_s": 8.2e-5, "mean_n": 1.6e-12},
    "grid r=8 g=0.01": {"min_t_ratio": 1.2e-7, "recovery_s": 0.0, "mean_n": 3.2e-4},
    "grid r=8 g=3000": {"min_t_ratio": 2.5e-10, "recovery_s": 2.5e-4, "mean_n": 3.6e-8},
    # held from s = 0 at r = 3, g = 1, theta0 in {1e-3, 0.1, 3}: the closed
    # dwell behind the closing ramp, and the constant opening, whose least
    # T_ratio is the 1/3 at s = 0 that the record prints to 12 digits
    "held dwell=3": {"min_t_ratio": 5.0e-8, "recovery_s": 3.0e-8, "mean_n": 1.1e-10},
    "held level=1/3": {"min_t_ratio": 3.4e-13, "recovery_s": 3.0e-8, "mean_n": 5.6e-12},
}


def opening_of(point):
    """The point's opening profile: its breakpoints, its shape, or the sine."""
    from molcool.profiles import FrequencyProfile, ProfileShape

    if "breakpoints" in point:
        return FrequencyProfile(ProfileShape.PIECEWISE_LINEAR,
                                breakpoints=tuple(map(tuple, point["breakpoints"])))
    if "shape" in point:
        return FrequencyProfile(ProfileShape(point["shape"]), level=point.get("level", 1.0))
    return FrequencyProfile()


def reference(point, argmin_s, spacing):
    """The reference values of one point, given the record's argmin and
    sample spacing."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq, minimize_scalar

    from molcool.profiles import FrequencyProfile, ProfileShape, omega_at
    from molcool.solver import RECOVERY_TARGET

    theta0, r, g, horizon = (point[key] for key in ("theta0", "r", "g", "horizon"))
    opening = opening_of(point)
    closed = theta0 * r

    def ramp(profile, start):
        """theta(s) over `profile` played from s = start."""
        return lambda s: theta0 * r * omega_at(profile, s - start, r)

    def nu(th):
        return 1.0 / np.expm1(th)

    # the run before the hold as pieces (start, end, theta), smooth inside;
    # a float theta holds
    if "dwell" in point:
        start = -1.0 - point["dwell"]
        closing = FrequencyProfile(ProfileShape.REVERSED_SINE_CLOSING)
        pieces = [(start, -point["dwell"], ramp(closing, start)), (-point["dwell"], 0.0, closed)]
        n_a = nu(theta0)
    else:
        start, pieces, n_a = 0.0, [], nu(closed)
    ends = [0.0, *opening.kinks]
    pieces += [(a, b, ramp(opening, 0.0)) for a, b in zip(ends, ends[1:])]
    # the sine opens to 1/r exactly, and the other shapes to their omega at the hold
    theta_h = theta0 if opening.shape is ProfileShape.SINE_OPENING else (
        closed * float(omega_at(opening, opening.hold_start, r)))
    solved = []
    for a, b, theta in pieces:
        if isinstance(theta, float):
            solved.append((a, b, theta, n_a))
            n_a = nu(theta) + (n_a - nu(theta)) * math.exp(-g * (b - a))
            continue
        sol = solve_ivp(
            lambda s, n, theta=theta: g * (nu(theta(s)) - n), (a, b), [n_a], "DOP853",
            rtol=1e-13, atol=1e-300, dense_output=True,
        )
        solved.append((a, b, theta, sol.sol))
        n_a = float(sol.y[0, -1])
    hold, n_h, nu_h = ends[-1], n_a, float(nu(theta_h))

    def at(s):
        """(theta, n) at s."""
        for a, b, theta, n in solved:
            if s <= b:
                if isinstance(theta, float):
                    return theta, nu(theta) + (n - nu(theta)) * math.exp(-g * (s - a))
                return float(theta(s)), float(n(s)[0])
        return theta_h, nu_h + (n_h - nu_h) * math.exp(-g * (s - hold))

    def t_ratio(s):
        theta, n = at(s)
        return theta / math.log1p(1.0 / n)

    lo, hi = max(start, argmin_s - spacing), min(horizon, argmin_s + spacing)
    found = minimize_scalar(t_ratio, bounds=(lo, hi), method="bounded",
                            options={"xatol": 1e-12})
    # bounded Brent never tries the bracket's ends, where a jump at s = 0 puts the least
    argmin_s = min((found.x, lo, hi), key=t_ratio)
    min_t_ratio = t_ratio(argmin_s)
    if min_t_ratio >= RECOVERY_TARGET:
        recovery_s = float(argmin_s)
    elif t_ratio(hold) >= RECOVERY_TARGET:
        # T_ratio climbs back on the ramp, once: its root there
        recovery_s = brentq(lambda s: t_ratio(s) - RECOVERY_TARGET, argmin_s, hold, xtol=1e-14)
    else:
        n_star = 1.0 / math.expm1(theta_h / RECOVERY_TARGET)
        recovery_s = hold + math.log((nu_h - n_h) / (nu_h - n_star)) / g
        if not argmin_s <= hold <= recovery_s:
            raise SystemExit(f"{point}: the recovery at s = {recovery_s} is not in the hold")
    return {
        "min_t_ratio": float(min_t_ratio),
        "argmin_s": float(argmin_s),
        "recovery_s": recovery_s,
        "mean_n": {str(s): at(s)[1] for s in MEAN_N_AT if s <= horizon},
    }


def errors(point, result):
    """|printed - true| of each quantity of a `run_cycle` result, the
    worst mean_n relative."""
    record, recovery = result.record, result.summary.recovery
    at = [int(np.abs(record.s - float(s)).argmin()) for s in point["mean_n"]]
    # a recovery past the horizon must be reported as none, and one within it found
    within = point["recovery_s"] <= point["horizon"]
    return {
        "min_t_ratio": abs(result.summary.min_t_ratio - point["min_t_ratio"]),
        "recovery_s": abs(recovery.s - point["recovery_s"]) if recovery.recovered and within
        else 0.0 if recovery.recovered == within else math.inf,
        "mean_n": max(
            abs(float(record.mean_n[k]) / n - 1.0) for k, n in zip(at, point["mean_n"].values())
        ),
    }


def run(point):
    """`run_cycle` of a corpus point."""
    from molcool.cycle import CycleConfig, FiniteDwell, ThermalClosed, run_cycle
    from molcool.units import DimensionlessParams

    mode = FiniteDwell(point["dwell"]) if "dwell" in point else ThermalClosed()
    d = DimensionlessParams(point["theta0"], point["r"], point["g"])
    return run_cycle(CycleConfig(d, opening_of(point), mode, point["horizon"]))


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from molcool.errors import SolverError

    points, worst = [], {region: {} for region in TOLERANCES}
    answered = [{"theta0": theta0, "r": r, "g": g, "horizon": horizon, "region": region}
                for theta0, r, g, horizon, region in POINTS]
    for point in [*answered, *CORNERS, *GRID, *HELD]:
        result = run(point)
        spacing = float(result.record.s[1] - result.record.s[0])
        point = {**point, **reference(point, result.summary.argmin_s, spacing)}
        points.append(point)
        for name, error in errors(point, result).items():
            worst[point["region"]][name] = max(worst[point["region"]].get(name, 0.0), error)
    for point in REFUSED:
        try:
            run(point)
        except (ValueError, SolverError) as exc:
            if not str(exc).startswith(point["refused"]):
                raise
        else:
            raise SystemExit(f"{point}: answered, where it should be refused")
        points.append(point)
    outside = []
    for region, measured in worst.items():
        for name, error in measured.items():
            tolerance = TOLERANCES[region][name]
            print(f"{region:9} {name:11} worst {error:.3g}  tolerance {tolerance:.3g}")
            if not error <= tolerance <= 1.5 * error:
                outside.append(f"{region} {name}: tolerance {tolerance:.3g} is not within 1 to "
                               f"1.5 times today's worst error {error:.3g}")
    if outside:
        raise SystemExit("\n".join(outside))
    CORPUS.write_text(json.dumps({"tolerances": TOLERANCES, "points": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
