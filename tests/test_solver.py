"""Tests for the occupation-factor relaxation solvers."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from molcool import solver
from molcool.cycle import TimeSeriesRecord
from molcool.errors import SolverError
from molcool.profiles import FrequencyProfile, ProfileShape, omega_at
from molcool.solver import (
    _GL_NODES,
    _GL_WEIGHTS,
    RecoveryResult,
    _check_run,
    _kinks_inside,
    _propagate,
    _rule,
    _rule_tables,
    _scan,
    _scan_one_factor,
    _split_at_kinks,
    _substeps,
    evolve_eta_closed_form,
    evolve_eta_ode,
    occupation_at,
    recovery_time,
)
from molcool.thermo import nu_of, ratio_from_eta, thermal_eta
from molcool.units import DimensionlessParams


DEFAULT = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
OPENING = FrequencyProfile()


def use_grid(mp, samples_per_unit, step_size=solver.STEP_SIZE):
    """Run the eta routes at `samples_per_unit` samples per unit and a
    substep of at most `step_size`, through `mp`, a pytest MonkeyPatch."""
    mp.setattr(solver, "SAMPLES_PER_UNIT", samples_per_unit)
    mp.setattr(solver, "STEP_SIZE", step_size)


def constant_profile(level=1.0):
    return FrequencyProfile(shape=ProfileShape.CONSTANT, level=level)


def schedule(d, profile, traj):
    """omega/omega1 at a route's samples."""
    return omega_at(profile, traj.s, d.freq_ratio_r)


def temperature_ratio(d, profile, traj):
    """T_ratio of a route's samples at full precision, as the record derives it."""
    return ratio_from_eta(traj.eta, d.theta0 * d.freq_ratio_r * schedule(d, profile, traj))


def record_of(d, profile, traj):
    """The record of a route's samples, rounded to the CSV's 12 digits."""
    return TimeSeriesRecord.from_trajectory(
        traj, schedule(d, profile, traj), d.theta0 * d.freq_ratio_r
    )


def test_decoupled_eta_is_frozen(monkeypatch):
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=0.0)
    eta0 = nu_of(0.064) + 1.0
    use_grid(monkeypatch, 500)
    traj = evolve_eta_ode(d, OPENING, horizon=2.0)
    assert np.all(traj.eta == eta0)
    # frozen eta turns the temperature ratio into the frequency schedule itself
    ratio = temperature_ratio(d, OPENING, traj)
    np.testing.assert_allclose(ratio, schedule(d, OPENING, traj), rtol=0, atol=1e-13)
    assert ratio[-1] == pytest.approx(0.5, abs=1e-13)


@st.composite
def frozen_runs(draw, shape):
    """(profile, horizon, samples per unit) with omega within a factor 5 of
    closed; piecewise-linear breakpoints fall inside the horizon and off
    the sample grid, so the fixed-step route splits the substeps they hit."""
    horizon = draw(st.floats(min_value=0.1, max_value=3.0))
    samples_per_unit = draw(st.sampled_from([20, 100, 500]))
    level = st.floats(min_value=0.2, max_value=2.0)
    if shape is ProfileShape.CONSTANT:
        return FrequencyProfile(shape, level=draw(level)), horizon, samples_per_unit
    if shape is ProfileShape.PIECEWISE_LINEAR:
        fractions = draw(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=3))
        times = sorted({horizon * f for f in fractions})
        grid = np.linspace(0.0, horizon, _check_run(horizon, samples_per_unit) + 1)
        assume(not np.isin(times, grid).any())
        ws = draw(st.lists(level, min_size=len(times) + 1, max_size=len(times) + 1))
        profile = FrequencyProfile(shape, breakpoints=tuple(zip([0.0] + times, ws)))
        return profile, horizon, samples_per_unit
    duration = draw(st.floats(min_value=0.1, max_value=3.0))
    return FrequencyProfile(shape, duration=duration), horizon, samples_per_unit


@pytest.mark.parametrize("shape", ProfileShape, ids=lambda shape: shape.value)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    data=st.data(),
    theta0=st.floats(min_value=-3.0, max_value=1.0).map(lambda x: 10.0**x),
    r=st.floats(min_value=1.0, max_value=5.0),
    eta0=st.floats(min_value=-6.0, max_value=3.0).map(lambda x: 1.0 + 10.0**x),
)
def test_zero_coupling_freezes_eta_exactly(shape, data, theta0, r, eta0):
    # with g = 0 the kernel's decay is exp(0) = 1 and its integrals vanish,
    # and every RK4 stage's forcing is 0 * (nu + 1): both routes must
    # return eta0 bit for bit, kinked intervals included
    profile, horizon, samples_per_unit = data.draw(frozen_runs(shape))
    d = DimensionlessParams(theta0=theta0, freq_ratio_r=r, gamma_tau_g=0.0)
    with pytest.MonkeyPatch.context() as mp:
        use_grid(mp, samples_per_unit, 1e-3)
        kernel = evolve_eta_closed_form(d, profile, eta0, horizon)
        rk4 = evolve_eta_ode(d, profile, eta0, horizon)
    for traj in (kernel, rk4):
        assert traj.eta.size == _check_run(horizon, samples_per_unit) + 1
        assert np.all(traj.eta == eta0)


def test_constant_frequency_fixed_point_is_exact(monkeypatch):
    # starting on the stationary value, every RK4 stage vanishes identically
    use_grid(monkeypatch, 200, 1e-3)
    traj = evolve_eta_ode(DEFAULT, constant_profile(), horizon=20.0)
    eta_star = nu_of(0.064) + 1.0
    assert np.all(traj.eta == eta_star)
    np.testing.assert_allclose(
        temperature_ratio(DEFAULT, constant_profile(), traj), 1.0, rtol=0, atol=1e-12
    )
    # so it does just under the kernel's g D bound (g D = 4.235 over
    # D = 1/200), with 49 substeps per sample: every map adds exactly 0
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=847.0)
    traj = evolve_eta_ode(d, constant_profile(), horizon=1.0)
    assert traj.step_size == 1.0 / (200 * 49)
    assert np.all(traj.eta == eta_star)


def test_closed_form_matches_analytic_relaxation(monkeypatch):
    # g = 300 puts g D = 0.75 into each sample interval's kernel weight
    use_grid(monkeypatch, 400)
    prof = constant_profile(level=1.0)
    eta0 = 50.0
    eta_star = nu_of(0.1) + 1.0
    for g in (1.0, 300.0):
        d = DimensionlessParams(theta0=0.1, freq_ratio_r=1.0, gamma_tau_g=g)
        traj = evolve_eta_closed_form(d, prof, eta0=eta0, horizon=5.0)
        expected = eta_star + (eta0 - eta_star) * np.exp(-g * traj.s)
        np.testing.assert_allclose(traj.eta, expected, rtol=1e-11)


def test_kernel_rule_is_numpys_8_point_gauss_legendre_rule():
    x, w = np.polynomial.legendre.leggauss(8)
    assert _GL_NODES.tolist() == x[4:].tolist() == (-x[3::-1]).tolist()
    assert list(_GL_WEIGHTS) == w[4:].tolist() == w[3::-1].tolist()


def test_kernel_rule_is_exact_on_an_interval_split_at_its_kink():
    # |x - 0.3| is linear on either side of its kink: the middle interval,
    # split at the kink into two rows as the kernel route splits it, is
    # integrated exactly, like the two intervals beside it
    def unit_kernel_rule(start, lo, hi):
        half, nodes, _ = _rule_tables(0.0, lo, hi, hi)
        return _rule(lambda t: np.abs(t - 0.3), start, (half, nodes, np.ones_like(nodes)))

    start = np.array([0.0, 0.25, 0.25, 0.5])
    lo = np.array([0.0, 0.0, 0.3 - 0.25, 0.0])
    hi = np.array([0.25, 0.3 - 0.25, 0.25, 0.25])
    pieces = unit_kernel_rule(start, lo, hi)
    values = [pieces[0], pieces[1] + pieces[2], pieces[3]]

    def antiderivative(x):
        return (x - 0.3) * abs(x - 0.3) / 2.0

    exact = [antiderivative(a + 0.25) - antiderivative(a) for a in (0.0, 0.25, 0.5)]
    np.testing.assert_allclose(values, exact, rtol=1e-15, atol=0)
    # one rule across the kink misses it by 3.0e-4 relative
    whole = unit_kernel_rule(start[1:2], np.zeros(1), np.full(1, 0.25))
    assert abs(whole[0] / exact[1] - 1.0) > 1e-4


def test_ode_agrees_with_closed_form(monkeypatch):
    use_grid(monkeypatch, 200)
    for profile in SHAPES.values():
        ode = evolve_eta_ode(DEFAULT, profile, horizon=2.0)
        closed = evolve_eta_closed_form(DEFAULT, profile, horizon=2.0)
        np.testing.assert_allclose(ode.eta, closed.eta, rtol=1e-10)
        # both routes read one sample grid
        assert ode.s.tobytes() == closed.s.tobytes()


def dop853_eta(d, profile, s):
    """eta at the samples s from the thermal start at the closed frequency:
    scipy's DOP853 at rtol 1e-13 up to hold_start, restarted at every kink
    so that no step crosses a jump in the forcing's derivatives, and from
    there on the hold's closed form q + (eta_h - q) exp(-g (s - s_h))."""
    g, r = d.gamma_tau_g, d.freq_ratio_r

    def q(t):
        return 1.0 / math.expm1(d.theta0 * r * omega_at(profile, t, r)) + 1.0

    def rhs(t, eta):
        return g * q(t) - g * eta

    hold = min(profile.hold_start, float(s[-1]))
    cuts = [0.0, *sorted(x for x in {*profile.kinks, hold} if 0.0 < x <= hold)]
    eta = np.empty_like(s)
    eta[0] = thermal_eta(d.theta0 * r)
    start = eta[0]
    for a, b in zip(cuts, cuts[1:]):
        inside = (s > a) & (s <= b)
        # the samples in (a, b], then b itself, where the next piece starts
        t_eval = np.append(s[inside & (s < b)], b)
        y = solve_ivp(rhs, (a, b), [start], "DOP853", t_eval, rtol=1e-13, atol=1e-300).y[0]
        eta[inside] = y[: np.count_nonzero(inside)]
        start = y[-1]
    held = s > hold
    eta[held] = q(hold) + (start - q(hold)) * np.exp(-g * (s[held] - hold))
    return eta


# (theta0, r, g, profile, horizon, bound): each bound is about twice the
# largest relative eta error measured against DOP853, from 3.7e-14 at g =
# 3e3 to 1.2e-11 on the piecewise-linear ramp
WITNESSES = {
    "reference": (0.032, 2.0, 1.0, OPENING, 2.0, 7e-13),
    "g = 300": (0.032, 2.0, 300.0, OPENING, 2.0, 7e-13),
    "g = 3e3": (0.032, 2.0, 3e3, OPENING, 0.5, 1e-13),
    "g = 5e3": (0.032, 2.0, 5e3, OPENING, 0.5, 1e-13),
    "theta0 = 1e-10": (1e-10, 2.0, 1.0, OPENING, 2.0, 6e-13),
    "theta0 = 1e-14": (1e-14, 2.0, 1.0, OPENING, 2.0, 8e-13),
    "piecewise linear": (1.0, 3.0, 10.0, FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.30025, 0.6), (0.61234, 0.45), (1.1, 0.8)),
    ), 2.0, 2.5e-11),
    "reversed closing": (0.1, 5.0, 3.0, FrequencyProfile(
        shape=ProfileShape.REVERSED_SINE_CLOSING), 2.0, 4e-12),
    "opening of 0.01234567": (0.032, 2.0, 1.0, FrequencyProfile(duration=0.01234567), 2.0, 2e-13),
    "opening of 3.3e-4": (0.032, 2.0, 1.0, FrequencyProfile(duration=3.3e-4), 2.0, 2e-13),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_kernel_route_agrees_with_dop853(name):
    # stiff, cold, kinked and sub-interval openings, with the kernel's rule
    # split at every kink; the g >= 3e3 runs stop at 0.5, past the deepest
    # cooling, since DOP853 takes ~7e3 steps per unit there
    theta0, r, g, profile, horizon, bound = WITNESSES[name]
    d = DimensionlessParams(theta0=theta0, freq_ratio_r=r, gamma_tau_g=g)
    traj = evolve_eta_closed_form(d, profile, horizon=horizon)
    assert np.max(np.abs(traj.eta / dop853_eta(d, profile, traj.s) - 1.0)) < bound


def rk4_substep_reference(d, profile, eta0, horizon, samples_per_unit):
    """Plain RK4 of eta' = u - g eta, one substep at a time, sampled like
    evolve_eta_ode, with the substeps per sample its guard sets."""
    n_intervals = round(horizon * samples_per_unit)
    m = _substeps(horizon, d.gamma_tau_g)
    n_sub = m * n_intervals
    ts = np.linspace(0.0, horizon, 2 * n_sub + 1)
    g, r = d.gamma_tau_g, d.freq_ratio_r
    u = (g * (nu_of(d.theta0 * r * omega_at(profile, ts, r)) + 1.0)).tolist()
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
@pytest.mark.parametrize("step_size", [1e-3, 2e-4])  # 1 and 5 substeps per sample, 12 at g = 1e3
def test_ode_matches_per_substep_rk4(g, step_size, monkeypatch):
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    eta0 = 30.0
    use_grid(monkeypatch, 1000, step_size)
    traj = evolve_eta_ode(d, OPENING, eta0=eta0, horizon=2.0)
    expected = rk4_substep_reference(d, OPENING, eta0, 2.0, 1000)
    np.testing.assert_allclose(traj.eta, expected, rtol=1e-12, atol=0)
    if g == 0.0:
        assert np.all(traj.eta == eta0)


def full_grid_kernel(d, profile, eta0, horizon, samples_per_unit):
    """The kernel route with one rule row per piece of every interval, held
    or not, in one call: a piece between an interval's ends and the
    profile's kinks strictly inside it, its pieces summed in order."""
    n_intervals = round(horizon * samples_per_unit)
    g, r = d.gamma_tau_g, d.freq_ratio_r
    t0r = d.theta0 * r
    samples = np.linspace(0.0, horizon, n_intervals + 1)
    starts, widths = samples[:-1], samples[1:] - samples[:-1]

    def forcing(t):
        return nu_of(t0r * omega_at(profile, t, r)) + 1.0

    rows, lo, hi = [], [], []
    for k, (a, b) in enumerate(zip(starts.tolist(), samples[1:].tolist())):
        cuts = [a, *(kink for kink in profile.kinks if a < kink < b), b]
        for left, right in zip(cuts, cuts[1:]):
            rows.append(k)
            lo.append(left - a)
            hi.append(right - a)
    pieces = _rule(forcing, starts[rows], _rule_tables(g, np.array(lo), np.array(hi), widths[rows]))
    integrals = [0.0] * n_intervals
    for k, piece in zip(rows, pieces.tolist()):
        integrals[k] += piece
    eta, out = eta0, [eta0]
    for decay, value in zip(map(math.exp, (-g * widths).tolist()), integrals):
        eta = decay * eta + value
        out.append(eta)
    return samples, np.array(out)


def rk4_stages(s, m, h):
    """Every interval's substep edges and midpoints, j h/2 from its sample
    for j < 2m, then the last sample."""
    return np.append((s[:-1, None] + 0.5 * h * np.arange(2 * m)).ravel(), s[-1])


def full_grid_rk4(d, profile, eta0, horizon, samples_per_unit):
    """The RK4 route's scan with x[k] built from the forcing at every stage
    point, with the substeps per sample its guard sets."""
    n_intervals = round(horizon * samples_per_unit)
    m = _substeps(horizon, d.gamma_tau_g)
    n_sub = m * n_intervals
    s = np.linspace(0.0, horizon, n_intervals + 1)
    g, r = d.gamma_tau_g, d.freq_ratio_r

    def forcing(t):
        return g * (nu_of(d.theta0 * r * omega_at(profile, t, r)) + 1.0)

    h = horizon / n_sub
    u = forcing(rk4_stages(s, m, h))
    z = g * h
    alpha = h / 6.0 * (6.0 - 3.0 * z + z * z - z * z * z / 4.0)
    q = 4.0 - 2.0 * z + z * z / 2.0
    weights = (1.0 - g * alpha) ** np.arange(m - 1, -1, -1, dtype=float)
    u0 = u[0:-1:2].reshape(n_intervals, m)
    um = u[1::2].reshape(n_intervals, m)
    u1 = u[2::2].reshape(n_intervals, m)
    drive = (alpha * (u0 - u0[:, :1]) + h / 6.0 * (q * (um - u0) + (u1 - u0))) @ weights
    a_m = alpha * float(weights.sum())
    e = np.empty(n_intervals + 1)
    e[0] = 0.0
    e[1:] = a_m * (u0[:, 0] - g * eta0) + drive
    c = np.full(n_intervals, 1.0 - g * a_m)
    _split_at_kinks(*_kinks_inside(profile, s), s, m, h, g, eta0, forcing, c, e[1:])
    _scan(c, e[1:])
    return s, e + eta0


def sequential_rk4(d, profile, eta0, horizon):
    """The RK4 route as it ran before its scan: one sample per loop iteration,
    samples and eta returned unchecked.  It does not split kinked intervals."""
    n_intervals = _check_run(horizon, solver.SAMPLES_PER_UNIT)
    m = _substeps(horizon, d.gamma_tau_g)
    eta0 = thermal_eta(d.theta0 * d.freq_ratio_r) if eta0 is None else eta0
    g = d.gamma_tau_g
    n_sub = m * n_intervals
    s = np.linspace(0.0, horizon, n_intervals + 1)
    n_ramp = int(np.searchsorted(s[:-1], profile.hold_start))
    h = horizon / n_sub
    ts = rk4_stages(s[: n_ramp + 1], m, h)
    u = g * (nu_of(d.theta0 * d.freq_ratio_r * omega_at(profile, ts, d.freq_ratio_r)) + 1.0)
    z = g * h
    alpha = h / 6.0 * (6.0 - 3.0 * z + z * z - z * z * z / 4.0)
    q = 4.0 - 2.0 * z + z * z / 2.0
    r = 1.0 - g * alpha
    u0 = u[0:-1:2].reshape(n_ramp, m)
    um = u[1::2].reshape(n_ramp, m)
    u1 = u[2::2].reshape(n_ramp, m)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = r ** np.arange(m - 1, -1, -1, dtype=float)
        a_m = alpha * float(weights.sum())
        drive = (alpha * (u0 - u0[:, :1]) + h / 6.0 * (q * (um - u0) + (u1 - u0))) @ weights
        held_drive = float(np.zeros(m) @ weights)
        n_held = n_intervals - n_ramp
        eta = float(eta0)
        out = [eta]
        for u0_k, drive_k in zip(
            u0[:, 0].tolist() + [float(u[-1])] * n_held, drive.tolist() + [held_drive] * n_held
        ):
            eta = eta + a_m * (u0_k - g * eta) + drive_k
            out.append(eta)
    return s, np.array(out)


SHAPES = {
    "sine opening": OPENING,
    "constant": constant_profile(level=0.8),
    # breakpoints on samples, so the route splits no interval, as the loop never does
    "piecewise linear": FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (0.5, 0.6), (1.5, 0.9))
    ),
    "reversed closing": FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING),
}


@pytest.mark.parametrize(
    "eta0", [None, nu_of(0.032) + 1.0], ids=["thermal-closed", "finite-dwell"]
)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("g", [0.0, 1e-3, 1.0, 300.0, 3000.0, 2e4])
def test_scan_matches_sequential_loop(g, shape, eta0, monkeypatch):
    # 5000 samples per unit keep g = 2e4 within the kernel's g D bound (g D = 4)
    use_grid(monkeypatch, 5000)
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    traj = evolve_eta_ode(d, SHAPES[shape], eta0, horizon=2.0)
    s, eta = sequential_rk4(d, SHAPES[shape], eta0, 2.0)
    assert traj.s.tobytes() == s.tobytes()
    np.testing.assert_allclose(traj.eta, eta, rtol=1e-12, atol=0)


def affine_loop(c, x):
    """e_k of e = c[k] e + x[k] from e = 0, one map per loop iteration."""
    e, out = 0.0, []
    for c_k, x_k in zip(c.tolist(), x.tolist()):
        e = c_k * e + x_k
        out.append(e)
    return np.array(out)


def assert_scan_matches_loop(c, x):
    scanned_c, scanned_x = c.copy(), x.copy()
    _scan(scanned_c, scanned_x)
    np.testing.assert_allclose(scanned_x, affine_loop(c, x), rtol=1e-12, atol=0)
    # c ends as the composed maps' factors, the last one the whole run's
    np.testing.assert_allclose(scanned_c, np.cumprod(c), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025])
def test_scan_composes_random_maps_like_a_loop(n):
    rng = np.random.default_rng(n)
    assert_scan_matches_loop(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))


def test_scan_composes_the_routes_split_maps_like_a_loop(monkeypatch):
    # kinks in two adjacent intervals (30 and 31) and twice in interval 50:
    # each such interval enters the scan with its own c_k
    profile = FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.305, 0.8), (0.315, 0.7), (0.502, 0.9), (0.507, 0.6)),
    )
    maps = []

    def spy(c, x):
        maps.append((c.copy(), x.copy()))
        _scan(c, x)

    monkeypatch.setattr("molcool.solver._scan", spy)
    use_grid(monkeypatch, 100, 2.5e-3)
    evolve_eta_ode(DEFAULT, profile, eta0=50.0, horizon=1.0)
    (c, x), = maps
    assert np.flatnonzero(c != c[0]).tolist() == [30, 31, 50]
    assert_scan_matches_loop(c, x)


@pytest.mark.parametrize("start", ["0", "1", "n//3", "n-1", "n"])
@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025, 20000])
def test_one_factor_scan_is_the_scan_bit_for_bit(n, start):
    # x is one value from the held start on, as the RK4 route's held intervals are
    held = {"0": 0, "1": 1, "n//3": n // 3, "n-1": n - 1, "n": n}[start]
    rng = np.random.default_rng(n)
    c, x = float(rng.uniform(0.9, 1.0)), rng.uniform(-1.0, 1.0, n)
    x[held:] = rng.uniform(-1.0, 1.0)
    scanned = x.copy()
    _scan(np.full(n, c), scanned)
    _scan_one_factor(c, x, held)
    assert x.tobytes() == scanned.tobytes()


@pytest.mark.parametrize("kinked", [False, True], ids=["reference opening", "kinked profile"])
def test_rk4_route_scans_one_factor_exactly_without_a_kink_inside(kinked, monkeypatch):
    # the reference opening's one kink, its end, falls on a sample; the
    # profile of the test above has kinks strictly inside three intervals
    scans = []
    monkeypatch.setattr("molcool.solver._scan", lambda c, x: scans.append("factors"))
    monkeypatch.setattr("molcool.solver._scan_one_factor", lambda c, x, held: scans.append("one"))
    if kinked:
        profile = FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            breakpoints=((0.0, 1.0), (0.305, 0.8), (0.315, 0.7), (0.502, 0.9), (0.507, 0.6)),
        )
        use_grid(monkeypatch, 100, 2.5e-3)
        evolve_eta_ode(DEFAULT, profile, eta0=50.0, horizon=1.0)
    else:
        evolve_eta_ode(DEFAULT, OPENING, horizon=10.0)
    assert scans == ["factors" if kinked else "one"]


HOLD_PROFILES = {
    # horizon 2 at 128 samples per unit: the sine's hold starts on sample 128
    "sine, hold on a sample": FrequencyProfile(),
    "sine, hold mid-interval": FrequencyProfile(duration=0.3),
    "sine, no hold": FrequencyProfile(duration=5.0),
    "constant, hold at 0": constant_profile(level=0.8),
    "piecewise linear, hold mid-interval": FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.4, 0.5), (1.2345, 0.75)),
    ),
    "reversed closing": FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING),
}


@pytest.mark.parametrize("g", [0.0, 1.0, 300.0])
@pytest.mark.parametrize("name", HOLD_PROFILES)
def test_held_forcing_is_evaluated_once_with_the_same_bits(name, g, monkeypatch):
    # the routes skip the held stretch's forcing; every bit must stay as if
    # it had been evaluated at every point, with 1 and 3 RK4 substeps per
    # sample (27 at g = 300, where g h sets them), and kinked intervals split alike
    profile = HOLD_PROFILES[name]
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    eta0 = 30.0
    use_grid(monkeypatch, 128)
    kernel = evolve_eta_closed_form(d, profile, eta0, horizon=2.0)
    s, eta = full_grid_kernel(d, profile, eta0, 2.0, 128)
    assert kernel.s.tobytes() == s.tobytes()
    assert kernel.eta.tobytes() == eta.tobytes()
    for step_size in (1.0 / 128, 0.003):
        use_grid(monkeypatch, 128, step_size)
        rk4 = evolve_eta_ode(d, profile, eta0, 2.0)
        s, eta = full_grid_rk4(d, profile, eta0, 2.0, 128)
        assert rk4.s.tobytes() == s.tobytes()
        assert rk4.eta.tobytes() == eta.tobytes()


RAMPS = {
    # (profile, horizon, rows before the hold, distinct widths)
    "reference opening": (OPENING, 10.0, 2000, 14),
    "reversed closing": (FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING), 1.0, 2000, 10),
    "opening ends mid-interval": (FrequencyProfile(duration=0.30025), 1.0, 602, 10),
    "hold past the horizon": (FrequencyProfile(duration=2.0), 1.0, 2000, 10),
}


@pytest.mark.parametrize("name", RAMPS)
def test_kernel_route_integrates_each_interval_once(name, monkeypatch):
    # the run's one width table (14 widths on the reference opening, of
    # which the held stretch has 5) is built once, a row per distinct
    # width from 0 to it; rule calls read it: first every whole interval
    # that starts before the hold, by its class's row, then, after the
    # ramp and only when the hold starts inside the horizon, every
    # distinct width from hold_start.  Only an interval with a kink inside
    # gets rows of its own, one per piece.  An opening that ends at 0.30025
    # has 601 intervals before its hold, the last split at its end: 602
    # rows.  The reversed closing's hold starts at the horizon and the
    # 2-unit opening's past it: neither has held rows
    profile, horizon, ramp, widths = RAMPS[name]
    tables, rules = [], []

    def tables_spy(g, lo, hi, width):
        tables.append((lo.copy(), hi.copy(), width.copy()))
        return _rule_tables(g, lo, hi, width)

    def rule_spy(forcing, start, table):
        rules.append((start.copy(), table[1].copy()))
        return _rule(forcing, start, table)

    monkeypatch.setattr("molcool.solver._rule_tables", tables_spy)
    monkeypatch.setattr("molcool.solver._rule", rule_spy)
    traj = evolve_eta_closed_form(DEFAULT, profile, horizon=horizon)
    starts, all_widths = traj.s[:-1], np.diff(traj.s)
    n_ramp = int(np.searchsorted(starts, profile.hold_start))
    (lo, distinct, width), *pieces = tables
    assert distinct.size == widths
    assert distinct.tobytes() == np.unique(all_widths).tobytes() == width.tobytes()
    assert np.all(lo == 0.0)
    class_nodes = _rule_tables(DEFAULT.gamma_tau_g, lo, distinct, distinct)[1]
    (start, nodes), *piece_rules = rules
    if n_ramp < starts.size:
        # any held start gives the same bits, so every width starts at hold_start, once
        *piece_rules, (held_start, held_nodes) = piece_rules
        assert np.all(held_start == profile.hold_start)
        assert held_nodes.tobytes() == class_nodes.tobytes()
    else:
        assert n_ramp == starts.size and profile.hold_start >= horizon
    # each whole interval before the hold once, by its own width's row
    k = np.searchsorted(starts, start)
    assert starts[k].tobytes() == start.tobytes() and np.all(np.diff(k) > 0)
    width_id = np.searchsorted(distinct, all_widths[k])
    assert distinct[width_id].tobytes() == all_widths[k].tobytes()
    assert nodes.tobytes() == class_nodes[width_id].tobytes()
    split = np.setdiff1d(np.arange(n_ramp), k)
    if not split.size:
        assert not pieces and not piece_rules and start.size == ramp == n_ramp
        return
    # the rest, in order, tile each interval with a kink inside once
    ((lo, hi, p_width),), ((p_start, _),) = pieces, piece_rules
    assert start.size + p_start.size == ramp
    assert np.unique(p_start).tobytes() == starts[split].tobytes()
    assert p_width.tobytes() == all_widths[np.searchsorted(starts, p_start)].tobytes()
    assert np.all(lo[1:] == np.where(p_start[1:] == p_start[:-1], hi[:-1], 0.0)) and lo[0] == 0
    assert np.all(hi == np.where(np.append(p_start[1:] != p_start[:-1], True), p_width, hi))
    assert np.count_nonzero(hi != p_width) == ramp - n_ramp


@pytest.mark.parametrize("g", [0.0, 1.0, 300.0])
@pytest.mark.parametrize("name", RAMPS)
def test_class_rule_is_gauss_legendre_bit_for_bit(name, g):
    # every whole interval of the run, ramp or held, by its width class's
    # row gathered from the one table, and by a row of its own from 0 to
    # its width, as the route builds the pieces of a kinked interval
    profile, horizon = RAMPS[name][:2]
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    s = np.linspace(0.0, horizon, round(horizon * solver.SAMPLES_PER_UNIT) + 1)
    starts, widths = s[:-1], np.diff(s)
    distinct = np.unique(widths)
    width_id = np.searchsorted(distinct, widths)

    def forcing(t):
        return occupation_at(d, profile, t) + 1.0

    tables = _rule_tables(g, np.zeros(distinct.size), distinct, distinct)
    gathered = [t[width_id] for t in tables]
    own = _rule_tables(g, np.zeros(widths.size), widths, widths)
    for class_rows, own_rows in zip(gathered, own):
        assert class_rows.tobytes() == own_rows.tobytes()
    assert _rule(forcing, starts, gathered).tobytes() == _rule(forcing, starts, own).tobytes()
    # a held interval takes its class's held row, integrated from hold_start
    held = starts >= profile.hold_start
    by_class = _rule(forcing, np.full(distinct.size, profile.hold_start), tables)[width_id[held]]
    by_rows = _rule(forcing, starts[held], [t[held] for t in own])
    assert by_class.tobytes() == by_rows.tobytes()


def rule_error_on_the_kernel(g_d, width):
    """The 8-point rule's relative error on the kernel g exp(-g (D - v))
    over [0, D], D = `width`, against its integral 1 - exp(-g D): `_rule`
    itself, run in extended precision so that rounding stays far below
    the 1e-13 it is compared with."""
    width = np.array([width], dtype=np.longdouble)
    g = np.longdouble(g_d) / width[0]
    start = np.zeros(1, dtype=np.longdouble)
    integral = _rule(np.ones_like, start, _rule_tables(g, start, width, width))[0]
    return abs(integral / -np.expm1(-g * width[0]) - 1)


def test_max_gd_is_where_the_rule_misses_the_kernel_by_1e13():
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs a long double wider than a double")
    # the error depends on g D alone: the same bound holds at three widths
    for width in (1.0, 5e-4, 2.0**-11):
        errors = [rule_error_on_the_kernel(g_d, width)
                  for g_d in np.linspace(np.longdouble(1e-3), np.longdouble(solver._MAX_GD), 200)]
        assert max(errors) <= 1e-13
        assert rule_error_on_the_kernel(str(solver._MAX_GD + 1e-4), width) > 1e-13


def test_max_gd_rounds_down_the_exact_crossing():
    # the rule with its nodes and weights as written, in exact arithmetic,
    # misses the kernel by 1e-13 relative at g D = 4.23784; with 1 +- x_j
    # rounded to doubles, as `_rule_tables` forms its nodes, at 4.23775
    mp = pytest.importorskip("mpmath")

    def error(x, rounded):
        total = 0
        for node, weight in zip(_GL_NODES.tolist(), _GL_WEIGHTS):
            exact = mp.mpf(node)
            for u in (1.0 + node, 1.0 - node) if rounded else (1 + exact, 1 - exact):
                total += mp.mpf(weight) * x * mp.exp(-x * (1 - mp.mpf(u) / 2))
        return abs(total / 2 / -mp.expm1(-x) - 1)

    def crossing(rounded):
        lo, hi = mp.mpf(4), mp.mpf(5)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if error(mid, rounded) > 1e-13 else (mid, hi)
        return float(lo)

    with mp.workdps(40):
        assert round(crossing(rounded=False), 5) == 4.23784
        assert round(crossing(rounded=True), 5) == 4.23775
        assert 0 <= crossing(rounded=True) - solver._MAX_GD < 1e-4


def test_kernel_rule_refusal_point_at_the_reference():
    # at theta0 = 0.032, r = 2, horizon 2 (D = 1/2000) every g of a 0.01
    # grid over [8470, 8480] answers up to g D = _MAX_GD and is refused past it
    grid = np.arange(847_000, 848_001) / 100
    answers = []
    for g in grid.tolist():
        try:
            _substeps(2.0, g)
            answers.append(True)
        except SolverError:
            answers.append(False)
    cut = answers.index(False)
    assert all(answers[:cut]) and not any(answers[cut:])
    assert grid[cut - 1] * 5e-4 <= solver._MAX_GD < grid[cut] * 5e-4
    below, past = (DimensionlessParams(0.032, 2.0, grid[k]) for k in (cut - 1, cut))
    assert evolve_eta_closed_form(below, OPENING, horizon=2.0).eta.size == 4001
    with pytest.raises(SolverError, match=r"^coupling too stiff .*: g D = 4\.238 per "):
        evolve_eta_closed_form(past, OPENING, horizon=2.0)


def test_an_unreached_hold_is_not_evaluated():
    # the closing's hold at s = 5, past the horizon 2, sits at theta0 r = 800,
    # where the occupation underflows; the run reaches theta ~ 476 only, so
    # it answers with no warning, and with the bits it had when it warned
    d = DimensionlessParams(theta0=400.0, freq_ratio_r=2.0, gamma_tau_g=1.0)
    closing = FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING, duration=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta = evolve_eta_closed_form(d, closing, 1.5, horizon=2.0).eta
    assert (eta[2000], eta[-1]) == (1.1839397205856752, 1.0676676416182864)


def plain_propagate(eta0, width_id, decays, integrals, held, q):
    """`_propagate`'s samples by a plain loop: the ramp's steps, then the
    held ones, or q throughout the hold where the ramp ends at q."""
    eta = [eta0]
    for k, c in enumerate(width_id):
        if k < len(integrals):
            eta.append(decays[c] * eta[k] + integrals[k])
        elif eta[len(integrals)] == q:
            eta.append(q)
        else:
            eta.append(decays[c] * eta[k] + held[c])
    return eta


@pytest.mark.parametrize("n_steps, n_ramp, at_q",
                         [(9, 9, False), (9, 0, False), (9, 5, True), (9, 5, False), (0, 0, False)],
                         ids=["hold past the horizon", "hold from s = 0",
                              "ramp ends at q", "ramp then hold", "no intervals"])
def test_propagate_matches_a_plain_loop(n_steps, n_ramp, at_q):
    # each step takes its width class's decay, and a held one its class's integral
    rng = np.random.default_rng(11)
    decays, held = rng.uniform(0.5, 1.0, 3).tolist(), rng.uniform(0.0, 2.0, 3).tolist()
    width_id, integrals = rng.integers(0, 3, n_steps), rng.uniform(0.0, 2.0, n_ramp)
    q = rng.uniform(1.0, 3.0)
    if n_ramp == width_id.size:
        # as the kernel route passes a hold past the horizon
        held, q = [], math.nan
    if at_q:
        q = plain_propagate(1.5, width_id[:n_ramp].tolist(), decays, integrals.tolist(), [], q)[-1]
    expected = plain_propagate(1.5, width_id.tolist(), decays, integrals.tolist(), held, q)
    eta = np.full(n_steps + 1, np.nan)
    eta[0] = 1.5
    _propagate(eta, width_id, decays, integrals, held, q)
    assert eta.tobytes() == np.array(expected).tobytes()
    if at_q:
        # held at q, where the held steps would have moved it
        assert expected[n_ramp:] == [q] * (n_steps + 1 - n_ramp)
        moved = plain_propagate(1.5, width_id.tolist(), decays, integrals.tolist(), held, math.nan)
        assert moved[n_ramp:] != expected[n_ramp:]


def test_kernel_route_finds_width_classes_without_np_unique(monkeypatch):
    # np.unique's hash path imports numpy.ma; the width classes come from a sort
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    assert evolve_eta_closed_form(DEFAULT, OPENING, horizon=3.7).eta.size == 7401


def test_ode_step_halving_is_converged(monkeypatch):
    use_grid(monkeypatch, 200)
    coarse = evolve_eta_ode(DEFAULT, OPENING, horizon=2.0)
    use_grid(monkeypatch, 200, 5e-5)
    fine = evolve_eta_ode(DEFAULT, OPENING, horizon=2.0)
    rel = np.max(np.abs(fine.eta / coarse.eta - 1.0))
    assert rel < 1e-9


def test_overdamped_limit_tracks_instantaneous_equilibrium():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1e3)
    traj = evolve_eta_closed_form(d, OPENING, horizon=1.0)
    theta = 0.064 * schedule(d, OPENING, traj)
    target = nu_of(theta) + 1.0
    mask = traj.s >= 0.1
    rel = np.max(np.abs(traj.eta[mask] / target[mask] - 1.0))
    assert rel < 5e-3


def test_trajectory_metadata():
    ode = evolve_eta_ode(DEFAULT, OPENING, horizon=1.0)
    assert ode.step_size == 1e-4
    closed = evolve_eta_closed_form(DEFAULT, OPENING, horizon=1.0)
    assert closed.step_size is None
    assert len(closed.s) == 2001
    assert closed.s[0] == 0.0 and closed.s[-1] == 1.0


def test_stiff_coupling_and_ground_state_are_refused(monkeypatch):
    # g D = 250 is past the kernel's bound: the fixed-step route refuses it
    # too, before it allocates, whatever substep would have been stable
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=5e4)
    use_grid(monkeypatch, 200, 1e-3)
    with pytest.raises(SolverError, match=r"^coupling too stiff .*: g D = 250 per sample"):
        evolve_eta_ode(d, OPENING, eta0=40.0, horizon=1.0)
    # a step of g h = 0.01 relaxing toward eta* = 1 + 4e-18, which
    # rounds to 1: the first sample that reaches it is refused
    d = DimensionlessParams(theta0=40.0, freq_ratio_r=1.0, gamma_tau_g=100.0)
    use_grid(monkeypatch, 100)
    with pytest.raises(SolverError) as excinfo:
        evolve_eta_ode(d, constant_profile(level=1.0), eta0=1.05, horizon=1.0)
    assert str(excinfo.value) == (
        "model violation: eta reached 1.0 at s = 0.35 (at or below the ground-state limit)"
    )


def test_kernel_route_reports_first_sample_below_ground_state(monkeypatch):
    # with no forcing eta only decays: 1.05 exp(-0.01 k) first reaches 1 at
    # k = 5.  The forcing is nu + 1, so an occupation of -1 zeroes every
    # integrand
    monkeypatch.setattr(
        "molcool.solver.occupation_at", lambda d, profile, s: np.full(np.shape(s), -1.0)
    )
    use_grid(monkeypatch, 100)
    samples = np.linspace(0.0, 1.0, 101)
    eta = 1.05
    for width in np.diff(samples[:6]).tolist():
        eta = math.exp(-width) * eta
    assert eta <= 1.0 < math.exp(-0.04) * 1.05
    with pytest.raises(SolverError, match="ground-state limit") as excinfo:
        evolve_eta_closed_form(DEFAULT, OPENING, eta0=1.05, horizon=1.0)
    assert f"eta reached {eta} at s = 0.05 " in str(excinfo.value)
    # an eta that overflows is refused as the fixed-step route refuses it, as not finite
    monkeypatch.setattr(
        "molcool.solver.occupation_at", lambda d, profile, s: np.full(np.shape(s), np.inf)
    )
    with pytest.raises(SolverError, match=r"eta reached inf at s = 0.01 \(not finite\)$"):
        evolve_eta_closed_form(DEFAULT, OPENING, eta0=1.05, horizon=1.0)


def test_oversized_stage_grid_is_refused_before_allocation():
    # horizon 1e6 is a 2e10-point stage grid, 100 times the guard: both
    # routes refuse it with no grid allocated, its point count printed to
    # 3 digits (the kernel route's 2e9 samples would need ~85 GB)
    for route in (evolve_eta_ode, evolve_eta_closed_form):
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match=r"^a substep grid of 2e\+10 points .* memory"):
                route(DEFAULT, OPENING, horizon=1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, route.__name__


@pytest.mark.parametrize("route", [evolve_eta_ode, evolve_eta_closed_form])
def test_sample_count_past_float_range_is_refused(route):
    # 1e306 x 2000 samples per unit overflows to inf, which no int holds
    with pytest.raises(SolverError, match=r"^a sample grid of inf intervals \(horizon 1e\+306 "):
        route(DEFAULT, OPENING, horizon=1e306)


def test_eta0_validation():
    for bad in (1.0, 0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta0 must exceed 1"):
            evolve_eta_ode(DEFAULT, OPENING, eta0=bad, horizon=1.0)
        with pytest.raises(ValueError, match="eta0 must exceed 1"):
            evolve_eta_closed_form(DEFAULT, OPENING, eta0=bad, horizon=1.0)


def test_run_validation():
    with pytest.raises(ValueError, match="horizon must be positive"):
        evolve_eta_closed_form(DEFAULT, OPENING, horizon=-1.0)
    # a horizon shorter than one sample interval is one interval: two samples
    for evolve in (evolve_eta_closed_form, evolve_eta_ode):
        traj = evolve(DEFAULT, OPENING, horizon=1e-6)
        assert traj.s.tolist() == [0.0, 1e-6]
        assert traj.eta[1] == pytest.approx(traj.eta[0], rel=1e-6)


def test_recovery_time_default_cycle():
    traj = record_of(DEFAULT, OPENING, evolve_eta_closed_form(DEFAULT, OPENING, horizon=10.0))
    rec = recovery_time(traj)
    assert rec.recovered
    assert rec.horizon == 10.0
    assert rec.s == pytest.approx(5.6063788796, abs=1e-6)
    # the reported time sits on the interpolated crossing
    crossing = float(np.interp(rec.s, traj.s, traj.T_ratio))
    assert 0.0 <= crossing - 0.997 <= 1e-9


def test_recovery_time_is_the_interpolant_root():
    # the line from (1, 0.5) to (2, 1) meets 0.997 at s = 1 + 0.497/0.5 exactly
    traj = SimpleNamespace(s=np.array([0.0, 1.0, 2.0]), T_ratio=np.array([1.0, 0.5, 1.0]))
    assert recovery_time(traj) == RecoveryResult(True, 1.994, 2.0)


def test_recovery_time_edge_cases():
    # a minimum at or above the 0.997 target is the crossing itself
    shallow = SimpleNamespace(s=np.array([0.0, 1.0, 2.0]), T_ratio=np.array([1.0, 0.997, 0.998]))
    assert recovery_time(shallow) == RecoveryResult(True, 1.0, 2.0)
    # the reference opening has not climbed back to the target by s = 2
    traj = record_of(DEFAULT, OPENING, evolve_eta_closed_form(DEFAULT, OPENING, horizon=2.0))
    assert float(np.max(traj.T_ratio[np.argmin(traj.T_ratio):])) < 0.997
    assert recovery_time(traj) == RecoveryResult(False, None, 2.0)
    one = SimpleNamespace(s=np.array([0.0]), T_ratio=np.array([0.5]))
    with pytest.raises(ValueError, match="trajectory needs at least two samples"):
        recovery_time(one)


def test_recovery_faster_at_stronger_coupling():
    slow = record_of(DEFAULT, OPENING, evolve_eta_closed_form(DEFAULT, OPENING, horizon=10.0))
    d_fast = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=10.0)
    fast = record_of(d_fast, OPENING, evolve_eta_closed_form(d_fast, OPENING, horizon=10.0))
    s_slow = recovery_time(slow).s
    s_fast = recovery_time(fast).s
    assert s_fast == pytest.approx(1.1970, abs=1e-3)
    assert s_fast < s_slow


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
