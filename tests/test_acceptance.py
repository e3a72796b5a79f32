"""Acceptance gate: one pass/fail line per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see every line;
each criterion also asserts, so a FAIL fails the suite.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from molcool import solver
from molcool.cli import main
from molcool.cycle import (
    CycleConfig,
    SweepSpec,
    default_cycle_config,
    run_cycle,
)
from molcool.oracle import evolve_populations, populations_from_quenched, truncation_levels
from molcool.profiles import FrequencyProfile, ProfileShape
from molcool.solver import evolve_eta_closed_form, evolve_eta_ode
from molcool.thermo import nu_of, ratio_from_eta, thermal_state
from molcool.units import DimensionlessParams, si_roundtrip

_CACHE = {}


def default_run():
    if "default" not in _CACHE:
        start = time.perf_counter()
        result = run_cycle(default_cycle_config())
        _CACHE["default"] = (result, time.perf_counter() - start)
    return _CACHE["default"]


def report(number, text, ok):
    print(f"[criterion {number}] {text}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_reference_minimum():
    result, elapsed = default_run()
    value = result.summary.min_t_ratio
    ok = abs(value - 0.65) <= 0.05 and elapsed < 1.0
    assert report(1, f"reference cycle min T_ratio {value:.6f} in 0.65 +/- 0.05 under 1 s", ok)


def test_criterion_2_reference_recovery():
    result, elapsed = default_run()
    rec = result.summary.recovery
    ok = rec.recovered and abs(rec.s - 6.0) <= 1.0 and elapsed < 1.0
    s_text = f"{rec.s:.4f}" if rec.recovered else "never"
    assert report(2, f"recovery to 0.997 at s = {s_text} in 6.0 +/- 1.0 under 1 s", ok)


def test_criterion_3_weak_coupling_reaches_ideal_limit():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1e-4)
    start = time.perf_counter()
    result = run_cycle(CycleConfig(dimensionless=d))
    elapsed = time.perf_counter() - start
    value = result.summary.min_t_ratio
    ok = abs(value - 0.500) <= 0.001 and elapsed < 5.0
    assert report(3, f"min T_ratio {value:.6f} at gamma_tau_g=1e-4 in 0.500 +/- 0.001 under 5 s", ok)


def test_criterion_4_three_way_solver_agreement(monkeypatch):
    # the eta routes on the oracle's grid of 100 samples per unit
    monkeypatch.setattr(solver, "SAMPLES_PER_UNIT", 100)
    start = time.perf_counter()
    worst_routes = 0.0
    worst_oracle = 0.0
    for theta0 in (0.01, 0.032, 0.1):
        for ratio in (1.5, 2.0, 3.0):
            for g in (0.1, 1.0, 10.0):
                d = DimensionlessParams(theta0=theta0, freq_ratio_r=ratio, gamma_tau_g=g)
                prof = FrequencyProfile()
                closed = evolve_eta_closed_form(d, prof, horizon=3.0)
                ode = evolve_eta_ode(d, prof, horizon=3.0)
                worst_routes = max(
                    worst_routes, float(np.max(np.abs(ode.eta / closed.eta - 1.0)))
                )
                init = populations_from_quenched(
                    thermal_state(theta0 * ratio), truncation_levels(nu_of(theta0))
                )
                pops = evolve_populations(d, prof, init, horizon=3.0)
                worst_oracle = max(
                    worst_oracle,
                    float(np.max(np.abs((pops.mean_n + 1.0) / closed.eta - 1.0))),
                )
    elapsed = time.perf_counter() - start
    ok = worst_routes <= 1e-8 and worst_oracle <= 1e-4 and elapsed < 120.0
    assert report(
        4,
        "27-point grid: fixed-step vs kernel "
        f"{worst_routes:.2e} <= 1e-8, Fock-level mean {worst_oracle:.2e} <= 1e-4, under 120 s",
        ok,
    )


def test_criterion_5_quenched_form_is_preserved():
    d = default_cycle_config().dimensionless
    prof = FrequencyProfile()
    init = populations_from_quenched(
        thermal_state(d.theta0 * d.freq_ratio_r), truncation_levels(nu_of(d.theta0))
    )
    start = time.perf_counter()
    traj = evolve_populations(d, prof, init, horizon=10.0)
    elapsed = time.perf_counter() - start
    # max |r_n / mean(r) - 1| over the level ratios r_n = p_{n+1}/p_n, n < 51
    worst = float(traj.geometric_residual.max())
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(
        5, f"geometric level ratios stay uniform over n<=51: {worst:.2e} <= 1e-6, under 30 s", ok
    )


def test_criterion_6_equilibrium_identity_and_hold(monkeypatch):
    start = time.perf_counter()
    thetas = np.geomspace(1e-3, 10.0, 200)
    worst_identity = max(
        abs(ratio_from_eta(thermal_state(t).eta, t) - 1.0) for t in thetas
    )
    # hold at constant frequency for 100 relaxation times
    d = DimensionlessParams(theta0=0.024, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile(shape=ProfileShape.CONSTANT, level=1.0)
    eta_star = nu_of(0.048) + 1.0
    monkeypatch.setattr(solver, "SAMPLES_PER_UNIT", 200)
    monkeypatch.setattr(solver, "STEP_SIZE", 1e-3)
    ode = evolve_eta_ode(d, prof, horizon=100.0)
    closed = evolve_eta_closed_form(d, prof, horizon=100.0)
    drift = max(
        float(np.max(np.abs(ode.eta - eta_star))),
        float(np.max(np.abs(closed.eta - eta_star))),
    )
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-12 and drift <= 1e-10 and elapsed < 1.0
    assert report(
        6,
        f"thermal identity {worst_identity:.2e} <= 1e-12 and 100-relaxation-time hold "
        f"drift {drift:.2e} <= 1e-10, under 1 s",
        ok,
    )


def test_criterion_7_si_timescales():
    d = default_cycle_config().dimensionless
    si = si_roundtrip(d, 300.0)
    err_osc = abs(si.tau_osc / 5.0e-12 - 1.0)
    err_prime = abs(si.tau_osc_prime / 2.5e-12 - 1.0)
    ok = err_osc <= 0.005 and err_prime <= 0.005
    assert report(
        7,
        f"tau_osc {si.tau_osc:.4e} s within 0.5% of 5 ps and "
        f"tau_osc_prime {si.tau_osc_prime:.4e} s within 0.5% of 2.5 ps",
        ok,
    )


def test_criterion_8_monotone_responses():
    start = time.perf_counter()
    base = default_cycle_config()

    def min_ratio(**overrides):
        dims = replace(base.dimensionless, **overrides)
        return run_cycle(CycleConfig(dimensionless=dims)).summary.min_t_ratio

    mins_r = [min_ratio(freq_ratio_r=r) for r in (1.5, 2.0, 3.0)]
    mins_g = [min_ratio(gamma_tau_g=g) for g in (0.1, 1.0, 10.0)]
    record, _ = default_run()
    ratio = record.record.T_ratio
    post = ratio[record.record.s >= 1.0]
    post_ok = bool(np.min(np.diff(post)) >= -1e-12)
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(mins_r, mins_r[1:]))
    increasing = all(b > a for a, b in zip(mins_g, mins_g[1:]))
    ok = decreasing and increasing and post_ok and elapsed < 10.0
    assert report(
        8,
        "min T_ratio decreases with the frequency ratio, increases with the coupling, "
        "and T_ratio never dips after the opening, under 10 s",
        ok,
    )


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    ok = main(["reproduce-fig4", "--out", str(first)]) == 0
    ok &= main(["reproduce-fig4", "--out", str(second)]) == 0
    ok &= (first / "cycle.csv").read_bytes() == (second / "cycle.csv").read_bytes()
    base = ("sweep", "--axis", "ratio", "--values", "1.5,2,3")
    ok &= main([*base, "--workers", "1", "--out", str(tmp_path / "serial")]) == 0
    ok &= main([*base, "--workers", "4", "--out", str(tmp_path / "threaded")]) == 0
    ok &= (tmp_path / "serial/sweep.csv").read_bytes() == (
        tmp_path / "threaded/sweep.csv"
    ).read_bytes()
    assert report(
        9, "byte-identical CSVs across repeated runs and across worker counts", bool(ok)
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
