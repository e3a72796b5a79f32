"""Tests for the occupation-factor relaxation solvers."""

import math
import tracemalloc

import numpy as np
import pytest

from molcool.errors import SolverError
from molcool.profiles import FrequencyProfile, ProfileShape, omega_at
from molcool.solver import (
    RecoveryResult,
    _simpson_batch,
    evolve_eta_closed_form,
    evolve_eta_ode,
    recovery_time,
)
from molcool.thermo import nu_of
from molcool.units import DimensionlessParams


DEFAULT = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
OPENING = FrequencyProfile(freq_ratio_r=2.0)


def constant_profile(level=1.0, r=2.0):
    return FrequencyProfile(freq_ratio_r=r, shape=ProfileShape.CONSTANT, level=level)


def test_decoupled_eta_is_frozen():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=0.0)
    eta0 = nu_of(0.064) + 1.0
    traj = evolve_eta_ode(d, OPENING, horizon=2.0, samples_per_unit=500)
    assert np.all(traj.eta == eta0)
    # frozen eta turns the temperature ratio into the frequency schedule itself
    np.testing.assert_allclose(traj.T_ratio, traj.omega_over_omega1, rtol=0, atol=1e-13)
    assert traj.T_ratio[-1] == pytest.approx(0.5, abs=1e-13)


def test_constant_frequency_fixed_point_is_exact():
    # starting on the stationary value, every RK4 stage vanishes identically
    traj = evolve_eta_ode(
        DEFAULT, constant_profile(), horizon=20.0, step_size=1e-3, samples_per_unit=200
    )
    eta_star = nu_of(0.064) + 1.0
    assert np.all(traj.eta == eta_star)
    np.testing.assert_allclose(traj.T_ratio, 1.0, rtol=0, atol=1e-12)


def test_closed_form_matches_analytic_relaxation():
    # g = 300 makes the kernel bisect every interval several levels deep
    prof = constant_profile(level=1.0, r=1.0)
    eta0 = 50.0
    eta_star = nu_of(0.1) + 1.0
    for g in (1.0, 300.0):
        d = DimensionlessParams(theta0=0.1, freq_ratio_r=1.0, gamma_tau_g=g)
        traj = evolve_eta_closed_form(d, prof, eta0=eta0, horizon=5.0, samples_per_unit=400)
        expected = eta_star + (eta0 - eta_star) * np.exp(-g * traj.s)
        np.testing.assert_allclose(traj.eta, expected, rtol=1e-11)


def test_kernel_quadrature_refines_only_the_kinked_interval():
    # |x - 0.3| is linear, so exact at depth 0, except in the middle interval,
    # whose pieces around the kink bisect 28 levels deep
    start = np.array([0.0, 0.25, 0.5])
    width = np.full(3, 0.25)
    values = _simpson_batch(lambda s0, v, w: np.abs(s0 + v - 0.3), start, width)

    def antiderivative(x):
        return (x - 0.3) * abs(x - 0.3) / 2.0

    exact = [antiderivative(a + w) - antiderivative(a) for a, w in zip(start, width)]
    np.testing.assert_allclose(values, exact, rtol=0, atol=1e-12)


def test_ode_agrees_with_closed_form():
    ode = evolve_eta_ode(DEFAULT, OPENING, horizon=2.0, samples_per_unit=200)
    closed = evolve_eta_closed_form(DEFAULT, OPENING, horizon=2.0, samples_per_unit=200)
    np.testing.assert_allclose(ode.eta, closed.eta, rtol=1e-10)
    # grids are built independently, so only float-identical up to rounding
    np.testing.assert_allclose(ode.s, closed.s, rtol=0, atol=1e-12)


def rk4_substep_reference(d, profile, eta0, horizon, step_size, samples_per_unit):
    """Plain RK4 of eta' = u - g eta, one substep at a time, sampled like evolve_eta_ode."""
    n_intervals = round(horizon * samples_per_unit)
    m = max(1, math.ceil(horizon / n_intervals / step_size - 1e-9))
    n_sub = m * n_intervals
    ts = np.linspace(0.0, horizon, 2 * n_sub + 1)
    g = d.gamma_tau_g
    u = (g * (nu_of(d.theta0 * d.freq_ratio_r * omega_at(profile, ts)) + 1.0)).tolist()
    h = horizon / n_sub
    eta, out = eta0, [eta0]
    for k in range(n_sub):
        u0, um, u1 = u[2 * k], u[2 * k + 1], u[2 * k + 2]
        k1 = u0 - g * eta
        k2 = um - g * (eta + 0.5 * h * k1)
        k3 = um - g * (eta + 0.5 * h * k2)
        k4 = u1 - g * (eta + h * k3)
        eta += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % m == 0:
            out.append(eta)
    return np.array(out)


@pytest.mark.parametrize("g", [0.0, 1.0, 100.0, 1000.0])
@pytest.mark.parametrize("step_size", [1e-3, 2e-4])  # 1 and 5 substeps per sample
def test_ode_matches_per_substep_rk4(g, step_size):
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    eta0 = 30.0
    traj = evolve_eta_ode(
        d, OPENING, eta0=eta0, horizon=2.0, step_size=step_size, samples_per_unit=1000
    )
    expected = rk4_substep_reference(d, OPENING, eta0, 2.0, step_size, 1000)
    np.testing.assert_allclose(traj.eta, expected, rtol=1e-12, atol=0)
    if g == 0.0:
        assert np.all(traj.eta == eta0)


def test_ode_step_halving_is_converged():
    coarse = evolve_eta_ode(DEFAULT, OPENING, horizon=2.0, samples_per_unit=200)
    fine = evolve_eta_ode(
        DEFAULT, OPENING, horizon=2.0, step_size=5e-5, samples_per_unit=200
    )
    rel = np.max(np.abs(fine.eta / coarse.eta - 1.0))
    assert rel < 1e-9


def test_overdamped_limit_tracks_instantaneous_equilibrium():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1e3)
    traj = evolve_eta_closed_form(d, OPENING, horizon=1.0, samples_per_unit=2000)
    theta = 0.064 * traj.omega_over_omega1
    target = nu_of(theta) + 1.0
    mask = traj.s >= 0.1
    rel = np.max(np.abs(traj.eta[mask] / target[mask] - 1.0))
    assert rel < 5e-3


def test_trajectory_metadata():
    ode = evolve_eta_ode(DEFAULT, OPENING, horizon=1.0)
    assert ode.method == "rk4-fixed"
    assert ode.step_size == 1e-4
    assert ode.tolerance is None
    closed = evolve_eta_closed_form(DEFAULT, OPENING, horizon=1.0)
    assert closed.method == "closed-form"
    assert closed.tolerance == 1e-12
    assert closed.step_size is None
    assert len(closed.s) == 2001
    assert closed.s[0] == 0.0 and closed.s[-1] == 1.0


def test_unstable_step_aborts_below_ground_state():
    # one huge explicit step amplifies the offset far past the fixed point
    d = DimensionlessParams(theta0=1.0, freq_ratio_r=1.0, gamma_tau_g=50.0)
    with pytest.raises(SolverError, match="ground-state limit"):
        evolve_eta_ode(
            d,
            constant_profile(level=1.0, r=1.0),
            eta0=1.05,
            horizon=4.0,
            step_size=1.0,
            samples_per_unit=1,
        )
    # started above the fixed point, the same instability runs away upward
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=5e4)
    with pytest.raises(SolverError, match="unstable"):
        evolve_eta_ode(d, OPENING, eta0=40.0, horizon=1.0, step_size=1e-3, samples_per_unit=200)


def test_step_size_underflow():
    with pytest.raises(SolverError, match="step-size underflow"):
        evolve_eta_ode(DEFAULT, OPENING, horizon=1.0, step_size=1e-13)
    # a 2e10-point stage grid, 100 times the guard: refused with no grid allocated
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match="memory"):
            evolve_eta_ode(DEFAULT, OPENING, horizon=10.0, step_size=1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_eta0_validation():
    for bad in (1.0, 0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta0 must exceed 1"):
            evolve_eta_ode(DEFAULT, OPENING, eta0=bad, horizon=1.0)
        with pytest.raises(ValueError, match="eta0 must exceed 1"):
            evolve_eta_closed_form(DEFAULT, OPENING, eta0=bad, horizon=1.0)


def test_run_validation():
    mismatched = FrequencyProfile(freq_ratio_r=3.0)
    with pytest.raises(ValueError, match="does not match"):
        evolve_eta_ode(DEFAULT, mismatched, horizon=1.0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        evolve_eta_closed_form(DEFAULT, OPENING, horizon=-1.0)
    with pytest.raises(ValueError, match="one sample interval"):
        evolve_eta_closed_form(DEFAULT, OPENING, horizon=1e-6)


def test_recovery_time_default_cycle():
    traj = evolve_eta_closed_form(DEFAULT, OPENING, horizon=10.0)
    rec = recovery_time(traj)
    assert rec.recovered
    assert rec.horizon == 10.0
    assert rec.s == pytest.approx(5.6063788796, abs=1e-6)
    # the reported time sits on the interpolated crossing
    crossing = float(np.interp(rec.s, traj.s, traj.T_ratio))
    assert 0.0 <= crossing - 0.997 <= 1e-9


def test_recovery_time_edge_cases():
    traj = evolve_eta_closed_form(DEFAULT, OPENING, horizon=10.0)
    floor = float(np.min(traj.T_ratio))
    at_min = recovery_time(traj, target=floor)
    assert at_min.recovered
    assert at_min.s == traj.s[np.argmin(traj.T_ratio)]
    never = recovery_time(traj, target=1.5)
    assert never == RecoveryResult(False, None, 10.0)
    with pytest.raises(ValueError, match="target must be positive"):
        recovery_time(traj, target=0.0)


def test_recovery_faster_at_stronger_coupling():
    slow = evolve_eta_closed_form(DEFAULT, OPENING, horizon=10.0)
    d_fast = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=10.0)
    fast = evolve_eta_closed_form(d_fast, OPENING, horizon=10.0)
    s_slow = recovery_time(slow).s
    s_fast = recovery_time(fast).s
    assert s_fast == pytest.approx(1.1970, abs=1e-3)
    assert s_fast < s_slow


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
