"""Tests for the truncated level-population reference integrator."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.integrate._ivp.bdf as scipy_bdf
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from molcool.errors import SolverError
from molcool.oracle import (
    PopulationVector,
    _MAX_LEVELS,
    _rates,
    _SampleReducer,
    evolve_populations,
    mean_occupation,
    populations_from_quenched,
    truncation_levels,
)
from molcool.profiles import FrequencyProfile, ProfileShape
from molcool.thermo import QuenchedState, nu_of
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
    refusal = (
        rf"^a ladder of {_MAX_LEVELS + 1} levels would exceed memory limits "
        rf"\({_MAX_LEVELS} allowed\)$"
    )
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
    assert truncation_levels(0.5) == 20
    assert truncation_levels(nu_of(0.048)) == 814
    assert truncation_levels(0.024) == 1
    with pytest.raises(ValueError, match="nu_max must be positive"):
        truncation_levels(0.0)


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
    init = thermal_vector(1.0, truncation_levels(nu_of(1.0)) + 30)
    traj = evolve_populations(d, prof, init, horizon=10.0)
    assert np.max(np.abs(traj.populations - init.p)) < 1e-10
    # column sums of the generator vanish, so total mass is conserved
    assert np.max(np.abs(traj.mass - (init.p.sum() + init.tail_bound))) < 1e-9


def test_decoupled_populations_are_frozen():
    # zero coupling zeroes every transition rate and the Jacobian, so BDF's
    # Newton corrections and its dense output's differences all vanish
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=0.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.6)) + 20)
    traj = evolve_populations(d, prof, init, horizon=2.0)
    assert np.all(traj.populations == init.p)
    assert np.all(traj.mean_n == traj.mean_n[0])
    assert np.all(traj.mass == traj.mass[0])


def test_cooling_preserves_quenched_form():
    # the birth-death flow maps a geometric start onto geometric states
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    traj = evolve_populations(d, prof, init, horizon=1.0)
    assert np.max(np.abs(traj.mass - 1.0)) < 1e-9
    p_end = traj.final.p
    ratios = p_end[1:22] / p_end[:21]
    assert np.max(np.abs(ratios / ratios.mean() - 1.0)) < 1e-6


def test_tail_overflow_aborts_mid_run():
    # truncated for the initial state only; heating past it must abort
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.6)))
    with pytest.raises(SolverError, match="truncation too small") as excinfo:
        evolve_populations(d, prof, init, horizon=3.0)
    assert "at s =" in str(excinfo.value)


def test_trajectory_sample_access():
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    traj = evolve_populations(d, prof, init, horizon=0.5, samples_per_unit=10)
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
    # columns are samples; rows p_0, p_1, p_2 and the tail
    block = np.array([[0.5, 0.5], [0.3, 0.3], [0.2, 0.2], [-1e-20, 1e-11]])
    reducer = _SampleReducer(samples, 3)
    reducer.add(block)
    # sub-floor roundoff in the tail is clipped before it is reduced
    assert reducer.tail_bound[0] == 0.0
    assert reducer.mass[0] == 1.0
    assert reducer.mean_n[1] == pytest.approx(0.7, rel=1e-15)
    reducer.add(np.array([[1.0], [0.0], [0.0], [0.0]]))
    traj = reducer.trajectory()
    assert np.array_equal(traj.populations, [1.0, 0.0, 0.0])
    # an empty level in the window leaves its residual undefined, not an error
    assert not np.isfinite(traj.geometric_residual[-1])

    negative = np.array([[0.5], [0.5], [-1e-13], [0.0]])
    with pytest.raises(SolverError, match=r"integrator failure.*at s = 0$"):
        _SampleReducer(samples, 3).add(negative)
    leaking = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 2e-10]])
    with pytest.raises(SolverError, match=r"truncation too small.*at s = 0\.5"):
        _SampleReducer(samples, 3).add(leaking)


def test_sample_reducer_matches_column_reference():
    # dense output hands over C-ordered (levels + 1, k) blocks; the reducer
    # works on their transpose and must agree with a per-column reduction
    rng = np.random.default_rng(7)
    n_levels = 80
    blocks = []
    for k in (5, 1):
        p = 0.9 ** np.arange(n_levels)[:, None] * rng.uniform(0.5, 1.5, (n_levels, k))
        block = np.vstack([p / p.sum(axis=0), rng.uniform(0.0, 1e-12, (1, k))])
        assert block.flags.c_contiguous
        blocks.append(block)
    samples = np.linspace(0.0, 1.0, 6)
    reducer = _SampleReducer(samples, n_levels)
    for block in blocks:
        reducer.add(block.copy())
    traj = reducer.trajectory()
    columns = np.hstack(blocks).T
    n_idx = np.arange(n_levels, dtype=float)
    for k, col in enumerate(columns):
        pops, tail = col[:-1], col[-1]
        ratios = pops[1:52] / pops[:51]
        assert traj.mean_n[k] == pytest.approx(pops @ n_idx, rel=1e-14)
        assert traj.tail_bound[k] == tail
        assert traj.mass[k] == pytest.approx(pops.sum() + tail, rel=1e-14)
        assert traj.geometric_residual[k] == pytest.approx(
            np.max(np.abs(ratios / ratios.mean() - 1.0)), rel=1e-14
        )
    assert np.array_equal(traj.populations, columns[-1, :-1])


def shape_residual(p):
    ratios = p[1:52] / p[:51]
    return float(np.max(np.abs(ratios / ratios.mean() - 1.0)))


def test_geometric_residual_definition():
    # a start off quenched form by a few percent, level by level
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    base = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    p = base.p * (1.0 + 0.03 * np.sin(np.arange(base.p.size)))
    init = PopulationVector(p=p / (p.sum() + base.tail_bound), tail_bound=base.tail_bound)
    traj = evolve_populations(d, prof, init, horizon=0.5, samples_per_unit=10)
    assert shape_residual(init.p) > 0.01
    assert traj.geometric_residual[0] == pytest.approx(shape_residual(init.p), abs=1e-12)
    assert traj.geometric_residual[-1] == pytest.approx(shape_residual(traj.final.p), abs=1e-15)
    # the birth-death flow pulls the shape back toward geometric
    assert traj.geometric_residual[-1] < traj.geometric_residual[0]


def reference_populations(d, prof, init, horizon, samples_per_unit=100):
    """(samples, levels + 1) matrix from solve_ivp's BDF with t_eval and a
    sparse (SuperLU) Jacobian: the unstreamed route the oracle replaces.
    Its right-hand side is the birth-death law written level by level,
    not the oracle's band."""
    n_idx = np.arange(init.n_max + 1, dtype=float)
    lower_idx = np.arange(1.0, init.n_max + 2.0)
    upper_base = np.concatenate([np.arange(1.0, init.n_max + 1.0), [0.0]])

    def rhs(s, y):
        # dp_n/ds = down [(n+1) p_{n+1} - n p_n] + up [n p_{n-1} - (n+1) p_n],
        # with no level above n_max; the tail gains up (n_max+1) p_{n_max}
        down, up = _rates(d, prof, float(s))
        p = y[:-1]
        above = np.append(p[1:], 0.0)
        below = np.concatenate([[0.0], p[:-1]])
        dy = np.empty_like(y)
        dy[:-1] = down * ((n_idx + 1.0) * above - n_idx * p) + up * (
            n_idx * below - (n_idx + 1.0) * p
        )
        dy[-1] = up * n_idx.size * p[-1]
        return dy

    def jac(s, y):
        down, up = _rates(d, prof, float(s))
        main = np.concatenate([-(down * n_idx + up * (n_idx + 1.0)), [0.0]])
        return sp.diags(
            [up * lower_idx, main, down * upper_base], offsets=[-1, 0, 1], format="csc"
        )

    samples = np.linspace(0.0, horizon, int(round(horizon * samples_per_unit)) + 1)
    sol = solve_ivp(
        rhs, (0.0, horizon), np.concatenate([init.p, [init.tail_bound]]), method="BDF",
        t_eval=samples, rtol=1e-8, atol=1e-15, jac=jac,
    )
    assert sol.success
    return sol.y.T


def test_streamed_bdf_matches_unstreamed_reference():
    # 4002 levels, 1001 samples.  The two routes differ only in roundoff
    # (the Newton matrix's factorization, the reduction's summation order)
    # as long as BDF takes the same steps; a roundoff-level flip of one
    # step decision would move the results by up to the BDF tolerance
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.02, truncation_levels(nu_of(0.01)) + 20)
    assert init.p.size >= 1000
    traj = evolve_populations(d, prof, init, horizon=10.0)
    ref = np.clip(reference_populations(d, prof, init, 10.0), 0.0, None)
    pops, tails = ref[:, :-1], ref[:, -1]
    assert traj.s.size == ref.shape[0]
    assert np.max(np.abs(traj.mean_n / (pops @ np.arange(init.p.size)) - 1.0)) <= 1e-12
    assert np.max(np.abs(traj.tail_bound - tails)) <= 1e-15
    assert np.max(np.abs(traj.mass - (pops.sum(axis=1) + tails))) <= 1e-12
    np.testing.assert_allclose(traj.populations, pops[-1], rtol=1e-12, atol=1e-15)


def test_newton_solves_bypass_superlu(monkeypatch):
    def refuse(matrix):
        raise AssertionError("SuperLU factorization called")

    monkeypatch.setattr(scipy_bdf, "splu", refuse)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    # the patch reaches solve_ivp's sparse-Jacobian BDF ...
    with pytest.raises(AssertionError, match="SuperLU"):
        reference_populations(d, prof, init, 1.0)
    # ... and the oracle never calls it
    traj = evolve_populations(d, prof, init, horizon=1.0)
    assert traj.s[-1] == 1.0



def test_newton_matrix_is_formed_without_sparse_arithmetic(monkeypatch):
    # BDF is built with a sparse Jacobian; from then on I - cJ is formed
    # on the three diagonals, so no sparse subtraction may happen
    def refuse(self, other):
        raise AssertionError("sparse subtraction called")

    monkeypatch.setattr(sp._base._spbase, "__sub__", refuse)
    monkeypatch.setattr(sp._base._spbase, "__rsub__", refuse)
    with pytest.raises(AssertionError, match="sparse subtraction"):
        sp.eye(3, format="csc") - sp.eye(3, format="csc")
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    traj = evolve_populations(d, prof, init, horizon=2.0)
    assert traj.s[-1] == 2.0


def test_bdf_solver_is_freed_when_the_integration_ends(monkeypatch):
    # the solver sits in reference cycles (its closures hold it); with the
    # cyclic collector off it must still be gone once the run returns
    solvers = []

    class Recorded(scipy.integrate.BDF):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(weakref.ref(self))

    monkeypatch.setattr(scipy.integrate, "BDF", Recorded)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = thermal_vector(0.6, truncation_levels(nu_of(0.3)) + 20)
    gc.disable()
    try:
        traj = evolve_populations(d, prof, init, horizon=1.0)
        assert len(solvers) == 1 and solvers[0]() is None
        # and after a failed run too
        short = thermal_vector(0.6, truncation_levels(nu_of(0.6)))
        with pytest.raises(SolverError, match="truncation too small"):
            evolve_populations(d, prof, short, horizon=3.0)
        assert len(solvers) == 2 and solvers[1]() is None
    finally:
        gc.enable()
    assert traj.s[-1] == 1.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
