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

The default integrator is implicit (BDF with an analytic Jacobian): the
truncated generator's spectral radius grows like g * n_max * (4*nu + 2),
which makes explicit fixed-step integration unstable at deep-classical
corners (large nu) for any affordable step.  The generator, tail row
included, is tridiagonal, so BDF's Newton matrix I - cJ is factored and
solved with LAPACK's tridiagonal dgttrf/dgttrs instead of a general
sparse LU.  A fixed-step explicit 4th-order route is kept for
cross-validation and refuses steps outside its rigorous Gershgorin
stability bound.

Both routes stream their samples: at most `_BLOCK` = 64 samples at a
time are checked and reduced to per-sample mean level, tail, total mass
and geometric-shape residual, and only the final vector is kept, so
memory grows as O(levels x 64), not O(levels x samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import BDF
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import SolverError
from .profiles import FrequencyProfile, omega_at
from .solver import _check_run, _substeps_per_interval
from .thermo import QuenchedState, nu_of
from .units import DimensionlessParams

NEGATIVITY_FLOOR = -1e-14
_RK4_STABILITY_SPAN = 2.78  # explicit 4th-order real-axis stability limit
_BLOCK = 64         # samples reduced at a time
_SHAPE_WINDOW = 51  # geometric residual over p_{n+1}/p_n for n < 51


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
    method: str

    @property
    def final(self) -> PopulationVector:
        """A copy of the final vector, with its tail bound."""
        return PopulationVector(p=self.populations.copy(), tail_bound=float(self.tail_bound[-1]))


def truncation_levels(nu_max: float) -> int:
    """Level count rule n_max = ceil(40 * nu_max); keeps geometric tails < e^-40."""
    if not (math.isfinite(nu_max) and nu_max > 0.0):
        raise ValueError(f"nu_max must be positive, got {nu_max}")
    return int(math.ceil(40.0 * nu_max))


def populations_from_quenched(
    state: QuenchedState, n_max: int, tail_threshold: float = 1e-10
) -> PopulationVector:
    """Truncated quenched Boltzmann populations p_n = (1/eta)(1 - 1/eta)^n.

    The mass above n_max is exactly (1 - 1/eta)^(n_max + 1); it must come
    in under `tail_threshold` or the truncation is rejected.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    q = 1.0 - 1.0 / state.eta
    tail = q ** (n_max + 1)
    if tail > tail_threshold:
        raise ValueError(
            f"truncation too small: tail bound {tail:.3e} above threshold "
            f"{tail_threshold:.3e}; increase n_max"
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
    occ = nu_of(d.theta0 * d.freq_ratio_r * omega_at(profile, s))
    g = d.gamma_tau_g
    return g * (occ + 1.0), g * occ  # (down, up) per-quantum rates, scalar or array s


def _population_rhs(y, down, up, n_idx):
    """d/ds of (p_0..p_{n_max}, tail) at per-quantum rates (down, up)."""
    p = y[:-1]
    shifted_up = np.empty_like(p)
    shifted_up[:-1] = p[1:]
    shifted_up[-1] = 0.0
    shifted_down = np.empty_like(p)
    shifted_down[0] = 0.0
    shifted_down[1:] = p[:-1]
    dy = np.empty_like(y)
    dy[:-1] = down * ((n_idx + 1.0) * shifted_up - n_idx * p) + up * (
        n_idx * shifted_down - (n_idx + 1.0) * p
    )
    dy[-1] = up * n_idx.size * p[-1]
    return dy


def evolve_populations(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    init: PopulationVector,
    horizon: float = 10.0,
    *,
    method: str = "bdf",
    step_size: float = 1e-5,
    rtol: float = 1e-8,
    atol: float = 1e-15,
    samples_per_unit: int = 100,
    tail_threshold: float = 1e-10,
) -> PopulationTrajectory:
    """Integrate the truncated birth-death populations over `horizon`.

    method="bdf" (default): implicit multistep with the analytic
    tridiagonal Jacobian, controlled by `rtol`/`atol`.  method="rk4":
    fixed-step explicit stepper with substep bound `step_size`, rejected
    when the step violates the Gershgorin stability bound of the generator.

    Samples are reduced as they are produced (see `PopulationTrajectory`);
    only the final vector is kept.  Aborts at the first sample where any
    population or the tail drops below -1e-14 (integrator failure) or the
    tail estimate exceeds `tail_threshold` (truncation too small for the
    schedule).
    """
    n_intervals = _check_run(d, profile, horizon, samples_per_unit)
    samples = np.linspace(0.0, horizon, n_intervals + 1)
    reducer = _SampleReducer(samples, init.p.size, tail_threshold)
    y0 = np.concatenate([init.p, [init.tail_bound]])
    if method == "bdf":
        _evolve_bdf(d, profile, y0, samples, rtol, atol, reducer)
        label = "bdf"
    elif method == "rk4":
        _evolve_rk4(d, profile, y0, samples, step_size, reducer)
        label = "rk4-fixed"
    else:
        raise ValueError(f"unknown method {method!r}: expected 'bdf' or 'rk4'")
    return reducer.trajectory(label)


class _SampleReducer:
    """Checks and reduces sample blocks, in order, into per-sample arrays.

    A block is a (levels + 1, k) array whose columns hold p_0..p_{n_max}
    and the tail at the next k samples; it is clipped at 0 in place.
    """

    def __init__(self, samples: np.ndarray, n_levels: int, tail_threshold: float):
        self.samples = samples
        self.tail_threshold = tail_threshold
        self.n_idx = np.arange(n_levels, dtype=float)
        self.window = min(_SHAPE_WINDOW, n_levels - 1)
        self.mean_n, self.tail_bound, self.mass, self.geometric_residual = (
            np.empty(samples.size) for _ in range(4)
        )
        self.done = 0
        self.last = None

    def add(self, block: np.ndarray) -> None:
        lo, hi = self.done, self.done + block.shape[1]
        worst = block.min(axis=0)
        bad = np.flatnonzero(worst < NEGATIVITY_FLOOR)
        if bad.size:
            k = int(bad[0])
            raise SolverError(
                f"integrator failure: population {worst[k]:.3e} below the "
                f"{NEGATIVITY_FLOOR:g} floor at s = {self.samples[lo + k]:.6g}"
            )
        # forgive sub-floor negative roundoff, in the tail estimate as in the levels
        np.maximum(block, 0.0, out=block)
        pops, tails = block[:-1], block[-1]
        over = np.flatnonzero(tails > self.tail_threshold)
        if over.size:
            k = int(over[0])
            raise SolverError(
                f"truncation too small: tail bound {tails[k]:.3e} exceeded threshold "
                f"{self.tail_threshold:.3e} at s = {self.samples[lo + k]:.6g}; increase n_max"
            )
        self.mean_n[lo:hi] = self.n_idx @ pops
        self.tail_bound[lo:hi] = tails
        self.mass[lo:hi] = pops.sum(axis=0) + tails
        w = self.window
        # an empty level in the window leaves its sample's residual inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = pops[1 : w + 1] / pops[:w]
            spread = np.abs(ratios / ratios.mean(axis=0) - 1.0)
            self.geometric_residual[lo:hi] = spread.max(axis=0)
        self.last = pops[:, -1].copy()
        self.done = hi

    def trajectory(self, method: str) -> PopulationTrajectory:
        return PopulationTrajectory(
            s=self.samples,
            mean_n=self.mean_n,
            tail_bound=self.tail_bound,
            mass=self.mass,
            geometric_residual=self.geometric_residual,
            populations=self.last,
            method=method,
        )


def _use_tridiagonal_lu(solver: BDF) -> None:
    """Factor BDF's Newton matrix I - cJ with LAPACK's tridiagonal dgttrf.

    The augmented generator, tail row included, has offsets -1, 0 and +1
    only, so its three diagonals are the whole matrix; this replaces the
    general SuperLU factorization `BDF.__init__` sets up for a sparse J.
    """

    def lu(a):
        solver.nlu += 1
        dl, d, du, du2, ipiv, info = dgttrf(a.diagonal(-1), a.diagonal(0), a.diagonal(1))
        if info != 0:
            raise SolverError(
                f"population integration failed: singular Newton matrix at row {info}"
            )
        return dl, d, du, du2, ipiv

    def solve_lu(factors, b):
        x, _ = dgttrs(*factors, b)
        return x

    solver.lu, solver.solve_lu = lu, solve_lu


def _evolve_bdf(d, profile, y0, samples, rtol, atol, reducer):
    n_max = y0.size - 2
    n_idx = np.arange(n_max + 1, dtype=float)
    lower_idx = np.arange(1.0, n_max + 2.0)  # row n gains up*n from below; last row is the tail
    upper_base = np.concatenate([np.arange(1.0, n_max + 1.0), [0.0]])

    def rhs(s, y):
        return _population_rhs(y, *_rates(d, profile, float(s)), n_idx)

    def jac(s, y):
        down, up = _rates(d, profile, float(s))
        main = np.concatenate([-(down * n_idx + up * (n_idx + 1.0)), [0.0]])
        return sp.diags(
            [up * lower_idx, main, down * upper_base],
            offsets=[-1, 0, 1],
            format="csc",
        )

    solver = BDF(rhs, float(samples[0]), y0, float(samples[-1]), rtol=rtol, atol=atol, jac=jac)
    _use_tridiagonal_lu(solver)
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


def _evolve_rk4(d, profile, y0, samples, step_size, reducer):
    n_max = y0.size - 2
    horizon = float(samples[-1])
    n_intervals = samples.size - 1
    m = _substeps_per_interval(horizon, n_intervals, step_size)
    n_sub = m * n_intervals
    ts = np.linspace(0.0, horizon, 2 * n_sub + 1)
    # rigorous stability guard: Gershgorin row bound of the generator
    w = omega_at(profile, ts)
    nu_max = float(nu_of(d.theta0 * d.freq_ratio_r * float(w.min())))
    rho = d.gamma_tau_g * (2.0 * n_max + 1.0) * (2.0 * nu_max + 1.0)
    h = horizon / n_sub
    if rho > 0.0 and h > _RK4_STABILITY_SPAN / rho:
        raise SolverError(
            f"explicit step {h:.3e} violates the stability bound "
            f"{_RK4_STABILITY_SPAN / rho:.3e} for n_max={n_max}, nu_max={nu_max:.3g}; "
            "reduce step_size or use method='bdf'"
        )
    down, up = (rate.tolist() for rate in _rates(d, profile, ts))
    n_idx = np.arange(n_max + 1, dtype=float)

    # sample rows, handed to the reducer as (levels + 1, k) column blocks
    buf = np.empty((_BLOCK, y0.size))
    buf[0] = y = y0
    filled = 1
    for k in range(n_sub):
        i2 = 2 * k
        k1 = _population_rhs(y, down[i2], up[i2], n_idx)
        k2 = _population_rhs(y + (0.5 * h) * k1, down[i2 + 1], up[i2 + 1], n_idx)
        k3 = _population_rhs(y + (0.5 * h) * k2, down[i2 + 1], up[i2 + 1], n_idx)
        k4 = _population_rhs(y + h * k3, down[i2 + 2], up[i2 + 2], n_idx)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % m == 0:
            if filled == _BLOCK:
                reducer.add(buf.T)
                filled = 0
            buf[filled] = y
            filled += 1
    reducer.add(buf[:filled].T)
