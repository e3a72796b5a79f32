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

The default integrator is implicit (BDF with an analytic sparse
Jacobian): the truncated generator's spectral radius grows like
g * n_max * (4*nu + 2), which makes explicit fixed-step integration
unstable at deep-classical corners (large nu) for any affordable step.
A fixed-step explicit 4th-order route is kept for cross-validation and
refuses steps outside its rigorous Gershgorin stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import SolverError
from .profiles import FrequencyProfile, omega_at
from .solver import _check_run
from .thermo import QuenchedState, nu_of
from .units import DimensionlessParams

NEGATIVITY_FLOOR = -1e-14
_RK4_STABILITY_SPAN = 2.78  # explicit 4th-order real-axis stability limit


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
    """Sampled population dynamics: populations[k] holds levels 0..n_max at s[k]."""

    s: np.ndarray
    populations: np.ndarray
    tail_bound: np.ndarray
    mean_n: np.ndarray
    method: str

    def at(self, k: int) -> PopulationVector:
        return PopulationVector(p=self.populations[k].copy(), tail_bound=float(self.tail_bound[k]))


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

    method="bdf" (default): implicit multistep with the analytic sparse
    Jacobian, controlled by `rtol`/`atol`.  method="rk4": fixed-step
    explicit stepper with substep bound `step_size`, rejected when the
    step violates the Gershgorin stability bound of the generator.

    Aborts when any population drops below -1e-14 (integrator failure)
    or the running tail estimate exceeds `tail_threshold` (truncation
    too small for the schedule).
    """
    n_intervals = _check_run(d, profile, horizon, samples_per_unit)
    samples = np.linspace(0.0, horizon, n_intervals + 1)
    if method == "bdf":
        s_grid, y = _evolve_bdf(d, profile, init, samples, rtol, atol)
        label = "bdf"
    elif method == "rk4":
        s_grid, y = _evolve_rk4(d, profile, init, samples, step_size)
        label = "rk4-fixed"
    else:
        raise ValueError(f"unknown method {method!r}: expected 'bdf' or 'rk4'")
    worst = float(y.min())
    if worst < NEGATIVITY_FLOOR:
        raise SolverError(
            f"integrator failure: population {worst:.3e} below the {NEGATIVITY_FLOOR:g} floor"
        )
    # forgive sub-floor negative roundoff, in the tail estimate as in the levels
    pops = np.clip(y[:, :-1], 0.0, None)
    tails = np.clip(y[:, -1], 0.0, None)
    if np.any(tails > tail_threshold):
        k = int(np.argmax(tails > tail_threshold))
        raise SolverError(
            f"truncation too small: tail bound {tails[k]:.3e} exceeded threshold "
            f"{tail_threshold:.3e} at s = {s_grid[k]:.6g}; increase n_max"
        )
    n_idx = np.arange(init.n_max + 1, dtype=float)
    return PopulationTrajectory(
        s=s_grid,
        populations=pops,
        tail_bound=tails,
        mean_n=pops @ n_idx,
        method=label,
    )


def _evolve_bdf(d, profile, init, samples, rtol, atol):
    n_max = init.n_max
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

    y0 = np.concatenate([init.p, [init.tail_bound]])
    sol = solve_ivp(
        rhs,
        (float(samples[0]), float(samples[-1])),
        y0,
        method="BDF",
        t_eval=samples,
        rtol=rtol,
        atol=atol,
        jac=jac,
    )
    if not sol.success:
        raise SolverError(f"population integration failed: {sol.message}")
    return samples, sol.y.T.copy()


def _evolve_rk4(d, profile, init, samples, step_size):
    if not (math.isfinite(step_size) and step_size >= 1e-12):
        raise SolverError(f"step-size underflow: step {step_size} below 1e-12")
    n_max = init.n_max
    horizon = float(samples[-1])
    n_intervals = samples.size - 1
    delta = horizon / n_intervals
    m = max(1, math.ceil(delta / step_size - 1e-9))
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

    y = np.concatenate([init.p, [init.tail_bound]])
    out = np.empty((n_intervals + 1, y.size))
    out[0] = y
    idx = 0
    for k in range(n_sub):
        i2 = 2 * k
        k1 = _population_rhs(y, down[i2], up[i2], n_idx)
        k2 = _population_rhs(y + (0.5 * h) * k1, down[i2 + 1], up[i2 + 1], n_idx)
        k3 = _population_rhs(y + (0.5 * h) * k2, down[i2 + 1], up[i2 + 1], n_idx)
        k4 = _population_rhs(y + h * k3, down[i2 + 2], up[i2 + 2], n_idx)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % m == 0:
            idx += 1
            out[idx] = y
    return samples, out
