"""Fock-level birth-death route for verifying the mean-excitation solvers.

This module integrates the diagonal level populations directly,

    dp_n/ds = g (nu+1) [(n+1) p_{n+1} - n p_n] + g nu [n p_{n-1} - (n+1) p_n],

and never consults eta from the trajectory solvers, so the two routes
stay independent witnesses of the same physics.

Why the diagonal restriction is exact here: in the instantaneous number
basis the thermal-contact generator couples a matrix element <n|rho|m>
only to elements with the same offset n - m, so populations (offset 0)
evolve among themselves and an initially diagonal state stays diagonal.

Truncation at n_max drops the downward flow from level n_max + 1; the
compensating upward outflow g*nu*(n_max+1)*p_{n_max} is integrated into
the tail estimate, making "sum(p) + tail_bound" a conserved quantity of
the augmented system (conservation violations measure integrator error).

The generator, tail row included, is tridiagonal, and it is written
once: as its (3, n) band of upper, main and lower diagonals at s.  The
right-hand side is band . y, three slice multiply-adds; the band is the
Jacobian, and BDF's start-up sparse J is built from it, so the law and
its Jacobian cannot disagree.  The integrator is implicit (BDF): the
generator's spectral radius grows like g * n_max * (4*nu + 2), which
makes explicit fixed-step integration unstable at deep-classical corners
(large nu) for any affordable step.  Its Newton matrix I - cJ is a band
too, which LAPACK's tridiagonal dgttrf/dgttrs factor and solve.  Newton
iterations repeat s, so the last (s, band) pair is kept, and past the
profile's `hold_start` every s maps to the hold's one band, whose bits
the profile guarantees.  When the integration ends the solver is
emptied: scipy's closures and ours hold it in reference cycles, which
would keep its arrays until the next cyclic garbage collection.

Samples are streamed from BDF's dense output: at most `_BLOCK` = 64
samples at a time are checked and reduced to per-sample mean level,
tail, total mass and geometric-shape residual, and only the final vector
is kept, so memory grows as O(levels x 64), not O(levels x samples).
Each block is transposed once so that every reduction runs along
memory, one sample's levels at a time.

`ladder_levels` sizes the ladder from the cycle's plan, before any
route runs, and `populations_from_quenched` refuses one of more than
`_MAX_LEVELS` levels, whose run would not fit in memory, before it
allocates anything.

scipy is imported by the functions that call it, not with this module:
`import molcool` and every run without the oracle never load it, and
the first oracle run in a process pays its import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .profiles import FrequencyProfile
from .solver import SAMPLES_PER_UNIT as _ETA_SAMPLES_PER_UNIT
from .solver import _check_run, _stage_points, occupation_at
from .thermo import QuenchedState
from .units import DimensionlessParams

SAMPLES_PER_UNIT = 100  # output samples per tau_open
NEGATIVITY_FLOOR = -1e-14
TAIL_THRESHOLD = 1e-10  # largest estimated mass above n_max a run accepts
_RTOL, _ATOL = 1e-8, 1e-15  # BDF error control
_BLOCK = 64         # samples reduced at a time
_SHAPE_WINDOW = 51  # geometric residual over p_{n+1}/p_n for n < 51
# a run's peak memory grows by 650-730 B per level (measured), so 2e6
# levels stay within the 1.6 GB the fixed-step route's stage grid may take
_MAX_LEVELS = 2_000_000


@dataclass(eq=False)
class PopulationVector:
    """Truncated level populations p_0..p_{n_max} plus estimated mass above."""

    p: np.ndarray
    tail_bound: float

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 1 or self.p.size < 2:
            raise ValueError("populations must be a 1-d array covering at least levels 0 and 1")
        if not np.all(np.isfinite(self.p)) or np.any(self.p < 0.0):
            raise ValueError("populations must be finite and nonnegative")
        if not (np.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise ValueError(f"tail_bound must be finite and >= 0, got {self.tail_bound}")

    @property
    def n_max(self) -> int:
        return self.p.size - 1


@dataclass(eq=False)
class PopulationTrajectory:
    """Per-sample reductions of the population dynamics, and the final vector.

    At each s[k]: mean_n = sum of n p_n; tail_bound, the estimated mass
    above n_max; mass = sum(p) + tail_bound, conserved by the exact flow;
    geometric_residual = max |r_n / mean(r) - 1| over the adjacent-level
    ratios r_n = p_{n+1} / p_n, n < 51, which is 0 in quenched Boltzmann
    form.  `populations` holds levels 0..n_max at s[-1] only.
    """

    s: np.ndarray
    mean_n: np.ndarray
    tail_bound: np.ndarray
    mass: np.ndarray
    geometric_residual: np.ndarray
    populations: np.ndarray

    @property
    def final(self) -> PopulationVector:
        """A copy of the final vector, with its tail bound."""
        return PopulationVector(p=self.populations.copy(), tail_bound=float(self.tail_bound[-1]))


def truncation_levels(nu_max: float) -> int:
    """Level count rule n_max = ceil(40 * nu_max); keeps geometric tails < e^-40."""
    if not (math.isfinite(nu_max) and nu_max > 0.0):
        raise ValueError(f"nu_max must be positive, got {nu_max}")
    return int(math.ceil(40.0 * nu_max))


def ladder_levels(d: DimensionlessParams, segments) -> int:
    """n_max for a run through the plan's (start, profile, duration) `segments`.

    The largest occupation on the eta routes' sample grids (each up to
    its hold, past which it repeats), sized by `truncation_levels`; 20
    more levels keep the one-way tail accumulator clear of its threshold
    where ceil(40 * nu) alone sits close to it.
    """
    nu_max = 0.0
    for _, prof, duration in segments:
        n = _check_run(duration, _ETA_SAMPLES_PER_UNIT)
        # the first sample at or past the hold, or one later under roundoff
        k = min(n, math.ceil(prof.hold_start / duration * n) + 1)
        samples = _stage_points(duration, n, 2 * np.arange(k + 1))  # np.linspace's first k + 1
        nu_max = max(nu_max, float(occupation_at(d, prof, samples).max()))
    return truncation_levels(nu_max) + 20


def populations_from_quenched(state: QuenchedState, n_max: int) -> PopulationVector:
    """Truncated quenched Boltzmann populations p_n = (1/eta)(1 - 1/eta)^n.

    The mass above n_max is exactly (1 - 1/eta)^(n_max + 1); it must come
    in under `TAIL_THRESHOLD` or the truncation is rejected.  A ladder of
    more than `_MAX_LEVELS` levels is refused before anything is allocated.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max + 1 > _MAX_LEVELS:
        raise ValueError(
            f"a ladder of {n_max + 1} levels would exceed memory limits "
            f"({_MAX_LEVELS} allowed)"
        )
    q = 1.0 - 1.0 / state.eta
    tail = q ** (n_max + 1)
    if tail > TAIL_THRESHOLD:
        raise ValueError(
            f"truncation too small: tail bound {tail:.3e} above threshold "
            f"{TAIL_THRESHOLD:.3e}; increase n_max"
        )
    p = (1.0 / state.eta) * q ** np.arange(n_max + 1)
    return PopulationVector(p=p, tail_bound=float(tail))


def mean_occupation(pv: PopulationVector) -> float:
    """Mean level of the truncated vector, sum of n * p_n.

    The truncated sum underestimates the true mean; when the mass above
    n_max is geometric with ratio 1 - 1/eta the deficit is exactly
    tail_bound * (n_max + eta), so a tail below 1e-10 leaves the mean
    good to ~1e-6 relative for the occupations this package targets.
    """
    n = np.arange(pv.p.size, dtype=float)
    return float(n @ pv.p)


def _rates(d: DimensionlessParams, profile: FrequencyProfile, s):
    occ = occupation_at(d, profile, s)
    g = d.gamma_tau_g
    return g * (occ + 1.0), g * occ  # (down, up) per-quantum rates, scalar or array s


def evolve_populations(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    init: PopulationVector,
    horizon: float = 10.0,
    *,
    samples_per_unit: int = SAMPLES_PER_UNIT,
) -> PopulationTrajectory:
    """Integrate the truncated birth-death populations over `horizon`.

    Implicit multistep (BDF) with the analytic tridiagonal Jacobian,
    under the error control `_RTOL`/`_ATOL`.  Samples are
    reduced as they are produced (see `PopulationTrajectory`); only the
    final vector is kept.  Aborts at the first sample where any
    population or the tail drops below `NEGATIVITY_FLOOR` (integrator
    failure) or the tail estimate exceeds `TAIL_THRESHOLD` (truncation
    too small for the schedule).
    """
    n_intervals = _check_run(horizon, samples_per_unit)
    samples = np.linspace(0.0, horizon, n_intervals + 1)
    reducer = _SampleReducer(samples, init.p.size)
    y0 = np.concatenate([init.p, [init.tail_bound]])
    _evolve_bdf(d, profile, y0, samples, reducer)
    return reducer.trajectory()


class _SampleReducer:
    """Checks and reduces sample blocks, in order, into per-sample arrays.

    A block is a (levels + 1, k) array whose columns hold p_0..p_{n_max}
    and the tail at the next k samples, as BDF's dense output returns it.
    It is transposed once into sample-major order, so each reduction
    runs along memory over one sample's levels; for k = 1 the transpose
    is a view and the block itself is clipped at 0.
    """

    def __init__(self, samples: np.ndarray, n_levels: int):
        self.samples = samples
        self.n_idx = np.arange(n_levels, dtype=float)
        self.window = min(_SHAPE_WINDOW, n_levels - 1)
        self.mean_n, self.tail_bound, self.mass, self.geometric_residual = (
            np.empty(samples.size) for _ in range(4)
        )
        self.done = 0
        self.last = None

    def add(self, block: np.ndarray) -> None:
        rows = np.ascontiguousarray(block.T)  # one row per sample
        lo, hi = self.done, self.done + rows.shape[0]
        worst = rows.min(axis=1)
        bad = np.flatnonzero(worst < NEGATIVITY_FLOOR)
        if bad.size:
            k = int(bad[0])
            raise SolverError(
                f"integrator failure: population {worst[k]:.3e} below the "
                f"{NEGATIVITY_FLOOR:g} floor at s = {self.samples[lo + k]:.6g}"
            )
        # forgive sub-floor negative roundoff, in the tail estimate as in the levels
        np.maximum(rows, 0.0, out=rows)
        pops, tails = rows[:, :-1], rows[:, -1]
        over = np.flatnonzero(tails > TAIL_THRESHOLD)
        if over.size:
            k = int(over[0])
            raise SolverError(
                f"truncation too small: tail bound {tails[k]:.3e} exceeded threshold "
                f"{TAIL_THRESHOLD:.3e} at s = {self.samples[lo + k]:.6g}; increase n_max"
            )
        # row by row, so a sample's bits do not depend on the block it came in
        self.mean_n[lo:hi] = np.einsum("ij,j->i", pops, self.n_idx)
        self.tail_bound[lo:hi] = tails
        self.mass[lo:hi] = pops.sum(axis=1) + tails
        w = self.window
        # an empty level in the window leaves its sample's residual inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = pops[:, 1 : w + 1] / pops[:, :w]
            spread = np.abs(ratios / ratios.mean(axis=1, keepdims=True) - 1.0)
            self.geometric_residual[lo:hi] = spread.max(axis=1)
        self.last = pops[-1].copy()
        self.done = hi

    def trajectory(self) -> PopulationTrajectory:
        return PopulationTrajectory(
            s=self.samples,
            mean_n=self.mean_n,
            tail_bound=self.tail_bound,
            mass=self.mass,
            geometric_residual=self.geometric_residual,
            populations=self.last,
        )


def _use_banded_newton(solver, band) -> None:
    """Hand BDF the Newton matrix I - cJ as its three diagonals.

    `band(s)` is the generator's (3, n) band, laid out as for
    `scipy.linalg.solve_banded`.  With a banded I and J, BDF's I - c*J is
    elementwise, and each entry is the one sparse arithmetic computes
    (0 - c J_ij off the diagonal); LAPACK's dgttrf factors it in place of
    the SuperLU factorization `BDF.__init__` sets up for a sparse J.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    identity = np.zeros((3, solver.n))
    identity[1] = 1.0

    def jac(s, y):
        solver.njev += 1
        return band(s)

    def lu(a):
        solver.nlu += 1
        dl, d, du, du2, ipiv, info = dgttrf(a[2, :-1], a[1], a[0, 1:])
        if info != 0:
            raise SolverError(
                f"population integration failed: singular Newton matrix at row {info}"
            )
        return dl, d, du, du2, ipiv

    def solve_lu(factors, b):
        x, _ = dgttrs(*factors, b)
        return x

    solver.I, solver.J = identity, band(solver.t)
    solver.jac, solver.lu, solver.solve_lu = jac, lu, solve_lu


def _evolve_bdf(d, profile, y0, samples, reducer):
    import scipy.sparse as sp
    from scipy.integrate import BDF

    n_idx = np.arange(y0.size - 1, dtype=float)  # levels 0..n_max; the tail follows
    hold = profile.hold_start
    last = [None, None]  # the latest (s, band); Newton iterations repeat s

    def band(s):
        # the generator's upper, main and lower diagonals at s; from the
        # hold on they are one band, and min() maps every held s to it
        s = min(float(s), hold)
        if s != last[0]:
            down, up = _rates(d, profile, s)
            b = np.zeros((3, y0.size))
            b[0, 1:-1] = down * n_idx[1:]  # row n gains down (n+1) p_{n+1}
            b[1, :-1] = -(down * n_idx + up * (n_idx + 1.0))
            b[2, :-1] = up * (n_idx + 1.0)  # row n+1 gains up (n+1) p_n; the last is the tail
            last[:] = s, b
        return last[1]

    def rhs(s, y):
        b = band(s)
        dy = b[1] * y
        dy[:-1] += b[0, 1:] * y[1:]
        dy[1:] += b[2, :-1] * y[:-1]
        return dy

    # BDF.__init__ takes J as an (n, n) matrix, which as a sparse one
    # costs O(n); the band replaces it right after
    solver = BDF(
        rhs, float(samples[0]), y0, float(samples[-1]), rtol=_RTOL, atol=_ATOL,
        jac=lambda s, y: sp.dia_matrix((band(s), [1, 0, -1]), shape=(y0.size,) * 2).tocsc(),
    )
    try:
        _use_banded_newton(solver, band)
        # the samples in (t_old, t] of each step, and s = 0 with the first,
        # from its dense output (as solve_ivp's t_eval)
        done = 0
        while done < samples.size:
            message = solver.step()
            if solver.status == "failed":
                raise SolverError(f"population integration failed: {message}")
            upto = int(np.searchsorted(samples, solver.t, side="right"))
            if upto > done:
                dense = solver.dense_output()
                for lo in range(done, upto, _BLOCK):
                    reducer.add(dense(samples[lo : min(lo + _BLOCK, upto)]))
                done = upto
    finally:
        # scipy's closures and ours hold the solver in reference cycles;
        # emptying it frees its arrays now, not at the next cyclic collection
        vars(solver).clear()
