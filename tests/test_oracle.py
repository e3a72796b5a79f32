"""Tests for the truncated level-population reference integrator."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

import molcool.oracle
from molcool.cycle import (
    CycleConfig,
    FiniteDwell,
    _largest_occupation,
    _nearest_indices,
    _plan_segments,
    run_cycle,
)
from molcool.errors import SolverError
from molcool.oracle import (
    PopulationVector,
    _MAX_LEVELS,
    _evolve_bdf,
    _SampleReducer,
    evolve_populations,
    mean_occupation,
    populations_from_quenched,
    truncation_levels,
)
from molcool.profiles import FrequencyProfile, ProfileShape
from molcool.solver import SAMPLES_PER_UNIT, evolve_eta_closed_form, occupation_at
from molcool.thermo import OccupationUnderflow, QuenchedState, nu_of
from molcool.units import DimensionlessParams


def thermal_vector(theta, n_max):
    return populations_from_quenched(QuenchedState(eta=nu_of(theta) + 1.0), n_max)


def test_quenched_populations_are_geometric():
    pv = populations_from_quenched(QuenchedState(eta=2.0), n_max=40)
    expected = 0.5 ** (np.arange(41) + 1)
    assert np.array_equal(pv.p, expected)
    assert pv.tail_bound == 0.5**41
    assert pv.n_max == 40


def test_quenched_tail_bound_reference():
    # eta for a bath at theta = 0.032; 1001 retained levels
    pv = populations_from_quenched(QuenchedState(eta=31.752666621156665), n_max=1000)
    assert pv.tail_bound < 1e-13
    assert pv.tail_bound == pytest.approx(1.22653e-14, rel=1e-3)


def test_quenched_rejects_short_truncation():
    with pytest.raises(ValueError, match="increase n_max"):
        populations_from_quenched(QuenchedState(eta=31.752666621156665), n_max=200)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        populations_from_quenched(QuenchedState(eta=2.0), n_max=0)


def test_oversized_ladder_is_refused_before_allocation():
    state = QuenchedState(eta=2.0)
    assert populations_from_quenched(state, n_max=_MAX_LEVELS - 1).p.size == _MAX_LEVELS
    # the count, 2000001, is printed to 3 significant digits
    refusal = rf"^a ladder of 2e\+06 levels would exceed memory limits \({_MAX_LEVELS} allowed\)$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=refusal):
            populations_from_quenched(state, n_max=_MAX_LEVELS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_mean_occupation_matches_eta():
    eta = 5.0
    n_max = 200
    pv = populations_from_quenched(QuenchedState(eta=eta), n_max=n_max)
    deficit = pv.tail_bound * (n_max + eta)
    assert abs(mean_occupation(pv) - (eta - 1.0)) <= deficit + 1e-12
    # thermal occupation at theta = 0.048
    nu = nu_of(0.048)
    pv = thermal_vector(0.048, truncation_levels(nu))
    assert mean_occupation(pv) == pytest.approx(20.337333179741759, rel=1e-9)


def test_mean_occupation_ground_state():
    assert mean_occupation(PopulationVector(p=np.array([1.0, 0.0]), tail_bound=0.0)) == 0.0


def test_truncation_levels_rule():
    assert truncation_levels(0.5) == 40
    assert truncation_levels(nu_of(0.048)) == 834
    assert truncation_levels(0.024) == 21
    with pytest.raises(ValueError, match="nu_max must be positive"):
        truncation_levels(0.0)
    # a count past the cap is refused, one past float range (40 x 1e308) too
    for nu_max, count in ((1e6, "4e+07"), (1e308, "inf")):
        with pytest.raises(ValueError, match=rf"^a ladder of {re.escape(count)} levels "):
            truncation_levels(nu_max)


def test_truncation_levels_keep_the_quenched_tail_below_e_minus_40(monkeypatch):
    # the docstring's proof, read on the rule itself with the memory cap
    # lifted: (n_max + 1) log1p(1/nu) >= 40, so the quenched tail at nu,
    # (nu/(nu+1))^(n_max+1), is below e^-40; ceil(40 nu) alone falls short
    monkeypatch.setattr(molcool.oracle, "_MAX_LEVELS", math.inf)
    nu = np.geomspace(1e-8, 1e8, 10001)
    n_max = np.array([truncation_levels(x) for x in nu], dtype=float)
    assert np.array_equal(n_max, np.ceil(40.0 * nu) + 20.0)
    assert np.all((n_max + 1.0) * np.log1p(1.0 / nu) >= 40.0)
    assert np.all((n_max - 19.0) * np.log1p(1.0 / nu) < 40.0)


@pytest.mark.parametrize("theta0", [1.0, 3.0])
@pytest.mark.parametrize("ratio", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("g", [0.3, 1.0, 10.0])
def test_exported_ladder_answers_where_run_cycle_does(theta0, ratio, g):
    # truncation_levels -> populations_from_quenched -> evolve_populations at
    # the largest occupation of run_cycle's plan; the unpadded ceil(40 nu)
    # was refused as "truncation too small" on 12 of these 18 runs
    d = DimensionlessParams(theta0=theta0, freq_ratio_r=ratio, gamma_tau_g=g)
    eta0, segments = _plan_segments(CycleConfig(d, horizon=3.0))
    pv = populations_from_quenched(
        QuenchedState(eta=eta0), truncation_levels(_largest_occupation(d, segments))
    )
    ((_, prof, duration),) = segments
    traj = evolve_populations(d, prof, pv, duration)
    assert traj.s[-1] == 3.0


def test_population_vector_validation():
    with pytest.raises(ValueError, match="1-d"):
        PopulationVector(p=np.ones((2, 2)), tail_bound=0.0)
    with pytest.raises(ValueError, match="at least levels 0 and 1"):
        PopulationVector(p=np.array([1.0]), tail_bound=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        PopulationVector(p=np.array([0.5, -0.1]), tail_bound=0.0)
    with pytest.raises(ValueError, match="tail_bound"):
        PopulationVector(p=np.array([0.5, 0.5]), tail_bound=math.nan)


def test_stationary_state_is_preserved():
    # theta held at 1.0; the integrator must sit on the thermal state
    d = DimensionlessParams(theta0=0.5, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile(shape=ProfileShape.CONSTANT, level=1.0)
    init = thermal_vector(1.0, truncation_levels(nu_of(1.0)))
    traj = evolve_populations(d, prof, init, horizon=10.0)
    assert np.max(np.abs(traj.populations - init.p)) < 1e-10
    # column sums of the generator vanish, so total mass is conserved
    assert np.max(np.abs(traj.mass - (init.p.sum() + init.tail_bound))) < 1e-9


def test_decoupled_populations_are_frozen():
    # zero coupling zeroes every transition rate and the Jacobian, so BDF's
    # Newton corrections and its dense output's differences all vanish
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=0.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.6)))
    traj = evolve_populations(d, prof, init, horizon=2.0)
    assert np.all(traj.populations == init.p)
    assert np.all(traj.mean_n == traj.mean_n[0])
    assert np.all(traj.mass == traj.mass[0])


def test_cooling_preserves_quenched_form():
    # the birth-death flow maps a geometric start onto geometric states
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    traj = evolve_populations(d, prof, init, horizon=1.0)
    assert np.max(np.abs(traj.mass - 1.0)) < 1e-9
    p_end = traj.final.p
    ratios = p_end[1:22] / p_end[:21]
    assert np.max(np.abs(ratios / ratios.mean() - 1.0)) < 1e-6


def test_tail_overflow_aborts_mid_run():
    # a deliberately short ladder, the rule's without its 20 extra levels,
    # holds the start's tail; heating past it must abort
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, math.ceil(40 * nu_of(0.6)))
    with pytest.raises(SolverError, match="truncation too small") as excinfo:
        evolve_populations(d, prof, init, horizon=3.0)
    assert "at s =" in str(excinfo.value)


def test_trajectory_sample_access(monkeypatch):
    monkeypatch.setattr(molcool.oracle, "SAMPLES_PER_UNIT", 10)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    traj = evolve_populations(d, prof, init, horizon=0.5)
    for name in ("s", "mean_n", "tail_bound", "mass", "geometric_residual"):
        assert getattr(traj, name).shape == (6,), name
    # only the final vector is kept
    assert traj.populations.shape == (init.p.size,)
    assert traj.mean_n[0] == pytest.approx(mean_occupation(init), rel=1e-12)
    final = traj.final
    assert final.tail_bound == traj.tail_bound[-1]
    # .final hands out a copy, not a view
    final.p[0] = 123.0
    assert traj.populations[0] != 123.0
    assert traj.mean_n[-1] == pytest.approx(mean_occupation(traj.final), rel=1e-12)


def test_run_validation():
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, 80)
    with pytest.raises(ValueError, match="horizon must be positive"):
        evolve_populations(d, prof, init, horizon=0.0)


def test_sample_reducer_checks_and_clips():
    samples = np.array([0.0, 0.5, 1.0])
    # rows are samples; columns p_0, p_1, p_2 and the tail
    block = np.array([[0.5, 0.3, 0.2, -1e-20], [0.5, 0.3, 0.2, 1e-11]])
    reducer = _SampleReducer(samples, 3)
    reducer.add(block)
    # sub-floor roundoff in the tail is clipped before it is reduced
    assert reducer.tail_bound[0] == 0.0
    assert reducer.mass[0] == 1.0
    assert reducer.mean_n[1] == pytest.approx(0.7, rel=1e-15)
    reducer.add(np.array([[1.0, 0.0, 0.0, 0.0]]))
    traj = reducer.trajectory(0, 0, 0, 0, 0)
    assert np.array_equal(traj.populations, [1.0, 0.0, 0.0])
    # an empty level in the window leaves its residual undefined, not an error
    assert not np.isfinite(traj.geometric_residual[-1])

    negative = np.array([[0.5, 0.5, -1e-13, 0.0]])
    with pytest.raises(SolverError, match=r"integrator failure.*at s = 0$"):
        _SampleReducer(samples, 3).add(negative)
    leaking = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 2e-10]])
    with pytest.raises(SolverError, match=r"truncation too small.*at s = 0\.5"):
        _SampleReducer(samples, 3).add(leaking)
    # nan compares false against the floor, so it is refused as a failure
    for col in (1, 3):
        poisoned = np.array([[0.5, 0.3, 0.2, 0.0], [0.5, 0.3, 0.2, 0.0]])
        poisoned[1, col] = np.nan
        with pytest.raises(SolverError, match=r"integrator failure: population nan .* at s = 0\.5$"):
            _SampleReducer(samples, 3).add(poisoned)


def column_reference(rows, n_levels):
    """Per-sample reductions of the sample-major `rows`, one sample at a time."""
    n_idx = np.arange(n_levels, dtype=float)
    for row in rows:
        pops, tail = row[:-1], row[-1]
        ratios = pops[1:52] / pops[:51]
        yield pops @ n_idx, tail, pops.sum() + tail, np.max(np.abs(ratios / ratios.mean() - 1.0))


def test_sample_reducer_matches_column_reference():
    # the integrator hands over C-ordered (k, levels + 1) blocks, one row
    # per sample; the reducer must agree with a sample-by-sample reduction
    rng = np.random.default_rng(7)
    n_levels = 80
    blocks = []
    for k in (5, 1):
        p = 0.9 ** np.arange(n_levels) * rng.uniform(0.5, 1.5, (k, n_levels))
        block = np.hstack([p / p.sum(axis=1, keepdims=True), rng.uniform(0.0, 1e-12, (k, 1))])
        assert block.flags.c_contiguous
        blocks.append(block)
    samples = np.linspace(0.0, 1.0, 6)
    reducer = _SampleReducer(samples, n_levels)
    for block in blocks:
        reducer.add(block.copy())
    traj = reducer.trajectory(0, 0, 0, 0, 0)
    rows = np.vstack(blocks)
    for k, (mean_n, tail, mass, residual) in enumerate(column_reference(rows, n_levels)):
        assert traj.mean_n[k] == pytest.approx(mean_n, rel=1e-14)
        assert traj.tail_bound[k] == tail
        assert traj.mass[k] == pytest.approx(mass, rel=1e-14)
        assert traj.geometric_residual[k] == pytest.approx(residual, rel=1e-14)
    assert np.array_equal(traj.populations, rows[-1, :-1])


def test_sample_reducer_clips_only_negative_blocks():
    # a block with sub-floor negatives in its levels and tail reduces as its
    # clipped copy would; a block with none is left as it came
    rng = np.random.default_rng(11)
    n_levels = 60
    p = 0.8 ** np.arange(n_levels) * rng.uniform(0.5, 1.5, (6, n_levels))
    rows = np.hstack([p / p.sum(axis=1, keepdims=True), rng.uniform(0.0, 1e-12, (6, 1))])
    # past the shape window, whose ratios a clipped level would leave undefined
    rows[1, 55], rows[2, -1], rows[5, 57] = -3e-15, -1e-16, -2e-15
    clipped = np.clip(rows, 0.0, None)
    negative, clean, last = rows[:3].copy(), rows[3:5].copy(), rows[5:].copy()
    reducer = _SampleReducer(np.linspace(0.0, 1.0, 6), n_levels)
    reducer.add(negative)
    assert np.array_equal(negative, clipped[:3])
    reducer.add(clean)
    assert np.array_equal(clean, rows[3:5])
    assert reducer.last is None  # not the run's last sample yet
    reducer.add(last)
    traj = reducer.trajectory(0, 0, 0, 0, 0)
    for k, (mean_n, tail, mass, residual) in enumerate(column_reference(clipped, n_levels)):
        assert traj.mean_n[k] == pytest.approx(mean_n, rel=1e-14)
        assert traj.tail_bound[k] == tail
        assert traj.mass[k] == pytest.approx(mass, rel=1e-14)
        assert traj.geometric_residual[k] == pytest.approx(residual, rel=1e-14)
    # the final vector is the last sample, clipped, in its own memory
    assert np.array_equal(traj.populations, clipped[-1, :-1])
    assert not np.shares_memory(traj.populations, last)


def shape_residual(p):
    ratios = p[1:52] / p[:51]
    return float(np.max(np.abs(ratios / ratios.mean() - 1.0)))


def test_geometric_residual_definition(monkeypatch):
    monkeypatch.setattr(molcool.oracle, "SAMPLES_PER_UNIT", 10)
    # a start off quenched form by a few percent, level by level
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    base = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    p = base.p * (1.0 + 0.03 * np.sin(np.arange(base.p.size)))
    init = PopulationVector(p=p / (p.sum() + base.tail_bound), tail_bound=base.tail_bound)
    traj = evolve_populations(d, prof, init, horizon=0.5)
    assert shape_residual(init.p) > 0.01
    assert traj.geometric_residual[0] == pytest.approx(shape_residual(init.p), abs=1e-12)
    assert traj.geometric_residual[-1] == pytest.approx(shape_residual(traj.final.p), abs=1e-15)
    # the birth-death flow pulls the shape back toward geometric
    assert traj.geometric_residual[-1] < traj.geometric_residual[0]


class RecordingReducer(_SampleReducer):
    """A reducer that keeps a copy of every block before reducing it."""

    def __init__(self, samples, n_levels):
        super().__init__(samples, n_levels)
        self.blocks = []

    def add(self, block):
        self.blocks.append(block.copy())
        super().add(block)


def test_streamed_bdf_matches_unstreamed_reference(monkeypatch):
    # 4002 levels, 1001 samples.  The integrator's own samples, recorded
    # unreduced and reduced here as one (samples, levels + 1) matrix: the
    # streamed reductions may differ from them only in summation order
    recorders = []

    def recording(samples, n_levels):
        recorders.append(RecordingReducer(samples, n_levels))
        return recorders[-1]

    monkeypatch.setattr(molcool.oracle, "_SampleReducer", recording)
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.02, truncation_levels(nu_of(0.01)))
    assert init.p.size >= 1000
    traj = evolve_populations(d, prof, init, horizon=10.0)
    assert len(recorders) == 1 and len(recorders[0].blocks) > 1
    ref = np.clip(np.vstack(recorders[0].blocks), 0.0, None)
    pops, tails = ref[:, :-1], ref[:, -1]
    assert traj.s.size == ref.shape[0]
    assert np.max(np.abs(traj.mean_n / (pops @ np.arange(init.p.size)) - 1.0)) <= 1e-12
    assert np.max(np.abs(traj.tail_bound - tails)) <= 1e-15
    assert np.max(np.abs(traj.mass - (pops.sum(axis=1) + tails))) <= 1e-12
    np.testing.assert_allclose(traj.populations, pops[-1], rtol=1e-12, atol=1e-15)


def test_mean_level_tracks_the_kernel_route():
    # the oracle's accuracy at its error control: mean_n + 1 against the
    # exact-kernel eta at every oracle sample.  4002 levels over horizon 10
    # measure 1.9e-8; 1e-7 leaves room for a different step sequence
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.02, truncation_levels(nu_of(0.01)))
    traj = evolve_populations(d, prof, init, horizon=10.0)
    kernel = evolve_eta_closed_form(d, prof, nu_of(0.02) + 1.0, 10.0)
    idx = np.searchsorted(kernel.s, traj.s)
    assert np.array_equal(kernel.s[idx], traj.s)
    assert np.max(np.abs((traj.mean_n + 1.0) / kernel.eta[idx] - 1.0)) <= 1e-7
    # and through a finite-dwell cycle: close, closed dwell, opening
    cfg = CycleConfig(
        dimensionless=d, init_mode=FiniteDwell(dwell=3.0), horizon=3.0, with_oracle=True
    )
    res = run_cycle(cfg)
    assert res.oracle.s[0] < 0.0 < res.oracle.s[-1]
    eta = res.record.eta[_nearest_indices(res.record.s, res.oracle.s)]
    assert np.max(np.abs((res.oracle.mean_n + 1.0) / eta - 1.0)) <= 1e-7


def test_oracle_cycle_memory_peak():
    # the run's sample block and step vectors are allocated once; 3.02 MB
    # measured at theta0 = 0.01 (4,002 levels) with 16-row blocks, 3.59 MB
    # with 64-row ones; the bound is 10% above an earlier 3.55 MB
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    cfg = CycleConfig(dimensionless=d, with_oracle=True)
    run_cycle(cfg)  # warm: one-time allocations are not the run's
    tracemalloc.start()
    try:
        run_cycle(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.9e6


def test_one_tridiagonal_solve_per_attempted_step(monkeypatch):
    # the law is linear, so a step's implicit system is solved once, exactly:
    # no Newton iteration, accepted or rejected.  Ramp steps solve with dgtsv;
    # from the hold on, I - c band is factored by dgttrf only when c changes,
    # and every held step solves with dgttrs on the kept factors
    calls = []

    def spy(name):
        lapack = getattr(scipy.linalg.lapack, name)

        def counted(*args, **kwargs):
            calls.append((name, args[1].size, -args[0][0]))  # c times the up rate
            return lapack(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)

    for name in ("dgtsv", "dgttrf", "dgttrs"):
        spy(name)
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.02, truncation_levels(nu_of(0.01)))
    samples = np.linspace(0.0, 10.0, 1001)
    y0 = np.concatenate([init.p, [init.tail_bound]])
    accepted, rejected, *_ = _evolve_bdf(d, prof, y0, samples, _SampleReducer(samples, init.p.size))
    names = [name for name, _, _ in calls]
    assert rejected > 0
    assert names.count("dgtsv") + names.count("dgttrs") == accepted + rejected
    assert {size for _, size, _ in calls} == {y0.size}
    # held steps: 28 factorizations for 131 solves (measured); each factors a
    # c more than 1e-12 relative away from the one before (a step size the
    # controller kept is not recomputed, so it gives the same c and no
    # factorization), and is followed by its step's solve
    factored = [up_c for name, _, up_c in calls if name == "dgttrf"]
    assert 0 < len(factored) < names.count("dgttrs") / 3
    assert all(abs(a / b - 1.0) > 1e-12 for a, b in zip(factored, factored[1:]))
    assert all(names[i + 1] == "dgttrs" for i, name in enumerate(names) if name == "dgttrf")


def test_singular_step_matrix_is_refused(monkeypatch):
    def singular(dl, d, du, b, **kwargs):
        return dl, d, du, b, 7

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", singular)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    with pytest.raises(SolverError, match=r"^population integration failed: singular at row 7$"):
        evolve_populations(d, FrequencyProfile(), init, horizon=1.0)


def test_singular_held_matrix_is_refused(monkeypatch):
    # the ramp solves with dgtsv; the held matrix's zero pivot comes from dgttrf
    dgttrf = scipy.linalg.lapack.dgttrf

    def singular(dl, d, du, **kwargs):
        return (*dgttrf(dl, d, du, **kwargs)[:-1], 7)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", singular)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    with pytest.raises(SolverError, match=r"^population integration failed: singular at row 7$"):
        evolve_populations(d, FrequencyProfile(), init, horizon=2.0)


LADDER_D = DimensionlessParams(theta0=0.0055, freq_ratio_r=2.0, gamma_tau_g=1.0)
LADDER_SEGMENTS = {
    # horizon 2 at the eta routes' 2000 samples per unit
    "sine, hold on a sample": (FrequencyProfile(), 2.0),
    "sine, hold mid-interval": (FrequencyProfile(duration=0.3), 2.0),
    "sine, no hold": (FrequencyProfile(duration=5.0), 2.0),
    "constant": (FrequencyProfile(ProfileShape.CONSTANT, level=0.8), 2.0),
    "piecewise linear, hold mid-interval": (
        FrequencyProfile(
            ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (0.4, 0.5), (1.2345, 0.75))
        ),
        2.0,
    ),
    "reversed closing": (FrequencyProfile(ProfileShape.REVERSED_SINE_CLOSING), 2.0),
}
# a minimum at s = 0.30013, between samples: the ladder reads it, the grid does not
OFF_GRID_MINIMUM = FrequencyProfile(
    ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (0.30013, 0.5), (1.0, 1.0))
)
_, DWELL_PLAN = _plan_segments(CycleConfig(LADDER_D, init_mode=FiniteDwell(dwell=3.0)))
for k, (_, prof, duration) in enumerate(DWELL_PLAN):
    LADDER_SEGMENTS[f"finite-dwell segment {k}"] = (prof, duration)


def grid_ladder(prof, duration):
    grid = np.linspace(0.0, duration, round(duration * SAMPLES_PER_UNIT) + 1)
    return truncation_levels(float(occupation_at(LADDER_D, prof, grid).max()))


@pytest.mark.parametrize("name", LADDER_SEGMENTS)
def test_ladder_levels_match_the_full_sample_grid(name):
    # the ladder's occupation is read at a segment's start, kinks and end
    # only; omega is monotone between them, and on these segments every one
    # of them is a sample, so the whole grid's largest occupation is the same
    prof, duration = LADDER_SEGMENTS[name]
    nu_max = _largest_occupation(LADDER_D, [(0.0, prof, duration)])
    assert truncation_levels(nu_max) == grid_ladder(prof, duration)


def test_ladder_levels_reach_a_minimum_between_samples():
    # the minimum at 0.30013 lies between the samples 0.3 and 0.3005, where
    # omega is higher: the grid misses it, the ladder reads it
    nu_max = _largest_occupation(LADDER_D, [(0.0, OFF_GRID_MINIMUM, 2.0)])
    assert truncation_levels(nu_max) > grid_ladder(OFF_GRID_MINIMUM, 2.0)


def test_ladder_levels_allocate_no_grid():
    # one segment of horizon 3000 is a 6e6-sample grid, 48 MB as floats;
    # the largest occupation is read at its start, kink and end alone
    tracemalloc.start()
    try:
        truncation_levels(_largest_occupation(LADDER_D, [(0.0, FrequencyProfile(), 3000.0)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("theta0", [0.003, 0.01, 0.3])
@pytest.mark.parametrize("g", [0.1, 1.0, 100.0])
def test_held_factors_repeat_the_tridiagonal_solve(theta0, g):
    # I - c band is strictly column diagonally dominant, so dgttrf swaps no
    # row, and its factors solve as dgtsv does, bit for bit
    d = DimensionlessParams(theta0=theta0, freq_ratio_r=2.0, gamma_tau_g=g)
    prof = FrequencyProfile()
    n_max = truncation_levels(_largest_occupation(d, [(0.0, prof, 10.0)]))
    levels = np.arange(n_max + 1, dtype=float)
    down, up = molcool.oracle._rates(d, prof, prof.hold_start)
    lower, upper = up * (levels + 1.0), np.append(down * levels[1:], 0.0)
    main = np.append(-(down * levels + up * (levels + 1.0)), 0.0)
    rhs = np.random.default_rng(3).uniform(-1.0, 1.0, levels.size + 1)
    for c in np.geomspace(1e-4, 1.0, 9):
        dl, dd, du = -c * lower, 1.0 - c * main, -c * upper
        *factors, ipiv, info = scipy.linalg.lapack.dgttrf(dl, dd, du)
        assert info == 0
        assert np.array_equal(ipiv, np.arange(1, dd.size + 1))
        held, info = scipy.linalg.lapack.dgttrs(*factors, ipiv, rhs)
        assert info == 0
        *_, solved, info = scipy.linalg.lapack.dgtsv(dl, dd, du, rhs)
        assert info == 0
        assert np.array_equal(held.view(np.uint64), solved.view(np.uint64))


def dense_generator(d, profile, s, n_levels):
    """The generator at s as a dense matrix over levels 0..n_max and the tail."""
    down, up = molcool.oracle._rates(d, profile, s)
    n = np.arange(n_levels)
    gen = np.zeros((n_levels + 1, n_levels + 1))
    gen[n[1:] - 1, n[1:]] = down * n[1:]  # down n p_n to level n - 1
    gen[n + 1, n] = up * (n + 1)  # up (n + 1) p_n to level n + 1; from n_max to the tail
    gen[n, n] = -(down * n + up * (n + 1))
    return gen


@pytest.mark.parametrize("g", [1.0, 100.0])
def test_step_matrix_is_the_dense_ndf_matrix(monkeypatch, g):
    # every matrix a step hands LAPACK is I - c B(s) for the generator B written
    # densely, tail row included: s is the step's on the ramp (the last rates
    # asked for) and the hold's from it on; c is read from one entry.  Every
    # state a solve returns satisfies its dense system
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=g)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    asked, calls = [], []
    rates = molcool.oracle._rates

    def logged(d, profile, s):
        asked.append(s)
        return rates(d, profile, s)

    monkeypatch.setattr(molcool.oracle, "_rates", logged)

    def spy(name):
        lapack = getattr(scipy.linalg.lapack, name)

        def copied(*args, **kwargs):
            given = [np.array(a) for a in args]
            out = lapack(*args, **kwargs)
            calls.append((name, asked[-1], given, np.array(out[-2])))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, name, copied)

    for name in ("dgtsv", "dgttrf", "dgttrs"):
        spy(name)
    evolve_populations(d, prof, init, horizon=2.0)
    assert {name for name, *_ in calls} == {"dgtsv", "dgttrf", "dgttrs"}
    for name, s, given, solved in calls:
        if name != "dgttrs":  # the factored matrix stands for the solves that follow it
            dl, dd, du = given[:3]
            matrix = np.diag(dd) + np.diag(dl, -1) + np.diag(du, 1)
            gen = dense_generator(d, prof, prof.hold_start if name == "dgttrf" else s, init.p.size)
            c = -dl[0] / gen[1, 0]
            assert c > 0.0
            np.testing.assert_allclose(matrix, np.eye(dd.size) - c * gen, rtol=1e-14, atol=0.0)
        if name != "dgttrf":
            rhs = given[-1]
            residual = np.max(np.abs(matrix @ solved - rhs))
            scale = np.max(np.abs(matrix).sum(axis=1)) * np.max(np.abs(solved)) + np.max(np.abs(rhs))
            assert residual <= 1e-13 * scale


COUNTS = ("accepted", "rejected", "dgtsv", "dgttrf", "dgttrs")


def test_step_counts_are_the_integrators(monkeypatch):
    # a trajectory keeps its integrator's (accepted, rejected) steps and its
    # dgtsv, dgttrf and dgttrs calls, as a LAPACK spy counts them, and a
    # cycle's stitched trajectory their sums over its segments
    returned, lapack_calls = [], []
    evolve = molcool.oracle._evolve_bdf

    def counted(*args):
        returned.append(evolve(*args))
        return returned[-1]

    monkeypatch.setattr(molcool.oracle, "_evolve_bdf", counted)

    def spy(name):
        lapack = getattr(scipy.linalg.lapack, name)

        def called(*args, **kwargs):
            lapack_calls.append(name)
            return lapack(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, called)

    for name in COUNTS[2:]:
        spy(name)

    def kept(traj):
        return tuple(getattr(traj, name) for name in COUNTS)

    def spied():
        return tuple(map(lapack_calls.count, COUNTS[2:]))

    d = DimensionlessParams(theta0=0.1, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.2, truncation_levels(nu_of(0.1)))
    traj = evolve_populations(d, FrequencyProfile(), init, horizon=3.0)
    assert returned == [kept(traj)]
    assert kept(traj)[2:] == spied() and all(spied())
    returned.clear()
    lapack_calls.clear()
    cfg = CycleConfig(
        dimensionless=d, init_mode=FiniteDwell(dwell=3.0), horizon=3.0, with_oracle=True
    )
    oracle = run_cycle(cfg).oracle
    assert len(returned) == 3 and all(accepted > 0 for accepted, *_ in returned)
    assert kept(oracle) == tuple(map(sum, zip(*returned)))
    assert kept(oracle)[2:] == spied()


def test_non_finite_rates_fail_where_they_start(monkeypatch):
    # every step past s = 0.5 has a nan correction and is halved, until
    # the step is under ten float spacings at s = 0.5
    rates = molcool.oracle._rates

    def nan_past_half(d, profile, s):
        return (math.nan, math.nan) if s > 0.5 else rates(d, profile, s)

    monkeypatch.setattr(molcool.oracle, "_rates", nan_past_half)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    shape = r"^population integration failed: step .* below the float spacing at s = 0\.5$"
    with pytest.raises(SolverError, match=shape):
        evolve_populations(d, FrequencyProfile(), init, horizon=1.0)


def nan_past_half(monkeypatch):
    """Make every rate past s = 0.5 nan, so the integrator fails there."""
    rates = molcool.oracle._rates

    def patched(d, profile, s):
        return (math.nan, math.nan) if s > 0.5 else rates(d, profile, s)

    monkeypatch.setattr(molcool.oracle, "_rates", patched)


def test_pending_samples_are_reduced_before_a_failure_leaves(monkeypatch):
    # sample blocks span steps; a failing step must not leave the samples
    # its predecessors wrote unreduced.  The last accepted step ends a few
    # float spacings short of s = 0.5, so every sample below it is reduced
    # (without a flush only the 48 of the last full block would be)
    nan_past_half(monkeypatch)
    recorders = []

    def recording(samples, n_levels):
        recorders.append(RecordingReducer(samples, n_levels))
        return recorders[-1]

    monkeypatch.setattr(molcool.oracle, "_SampleReducer", recording)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    with pytest.raises(SolverError, match="below the float spacing at s = 0.5$"):
        evolve_populations(d, FrequencyProfile(), init, horizon=1.0)
    (reducer,) = recorders
    assert reducer.done == np.searchsorted(reducer.samples, 0.5) == 50
    assert sum(len(block) for block in reducer.blocks) == reducer.done
    assert np.all(np.isfinite(reducer.mean_n[: reducer.done]))


class PoisonedReducer(_SampleReducer):
    """A reducer that sets p_0 to -1 at every sample from index `start` on."""

    start = 0

    def add(self, block):
        block[max(0, self.start - self.done) :, 0] = -1.0
        super().add(block)


def test_a_pending_floor_failure_is_reported_before_a_later_one(monkeypatch):
    # the rows still pending when the step fails at s = 0.5 fall below the
    # floor: the first of them is the failure reported, with its own s
    nan_past_half(monkeypatch)
    start = 50 // molcool.oracle._BLOCK * molcool.oracle._BLOCK
    monkeypatch.setattr(PoisonedReducer, "start", start)
    monkeypatch.setattr(molcool.oracle, "_SampleReducer", PoisonedReducer)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)))
    floor = rf"^integrator failure: population -1\.000e\+00 below the .* at s = {start / 100:g}$"
    with pytest.raises(SolverError, match=floor):
        evolve_populations(d, FrequencyProfile(), init, horizon=1.0)


SHAPES = [
    FrequencyProfile(),
    FrequencyProfile(ProfileShape.REVERSED_SINE_CLOSING, duration=2.0),
    FrequencyProfile(ProfileShape.CONSTANT, level=0.75),
    FrequencyProfile(
        ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (0.5, 0.6), (1.5, 0.8))
    ),
]


@pytest.mark.parametrize("profile", SHAPES, ids=lambda p: p.shape.value)
def test_rates_are_the_checked_occupations(profile):
    # the oracle's rates skip occupation_at's checks, not its arithmetic
    d = DimensionlessParams(theta0=0.0055, freq_ratio_r=2.0, gamma_tau_g=0.7)
    for s in (0.37 * profile.duration, profile.hold_start):
        nu = occupation_at(d, profile, s)
        down, up = molcool.oracle._rates(d, profile, s)
        assert float(down).hex() == (0.7 * (nu + 1.0)).hex()
        assert float(up).hex() == (0.7 * nu).hex()


def test_rates_keep_the_underflow_rule():
    # theta0 r omega = 800 at the closed end, past the 700 the occupation
    # underflows at, and 400 at the open end
    d = DimensionlessParams(theta0=400.0, freq_ratio_r=2.0, gamma_tau_g=1.5)
    with pytest.warns(OccupationUnderflow):
        assert molcool.oracle._rates(d, FrequencyProfile(), 0.0) == (1.5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", OccupationUnderflow)
        down, up = molcool.oracle._rates(d, FrequencyProfile(), 1.0)
    assert down == 1.5 and 0.0 < up < 1e-170


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
