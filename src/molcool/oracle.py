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

The generator, tail row included, is tridiagonal: column n loses
up (n+1) p_n to row n + 1 and down n p_n to row n - 1.  Its spectral
radius grows like g * n_max * (4*nu + 2), too stiff for explicit steps
at deep-classical corners (large nu), so the integrator is the implicit
NDF method of orders 1-5 (Shampine & Reichelt, SIAM J. Sci. Comput. 18,
1997) with scipy's coefficients and step control.  The law is linear:
each attempted step solves (I - c band) y_new = y_pred - psi for its
new state exactly, with no Newton iteration, on I - c band written from
the two rates, from the eta routes' `occupation_at`.  Before the
profile's `hold_start` that is one LAPACK tridiagonal solve (dgtsv), as
the band changes every step.  From it on every s maps to the hold's one
band, so I - c band is factored (dgttrf) only when c = h/alpha changes,
and each step solves on the kept factors (dgttrs).  The matrix is an
M-matrix, so partial pivoting swaps no row and the kept factors repeat
dgtsv's arithmetic bit for bit.

A step takes the step controller's own h, not the difference of the
times it joins; only the last, clipped to the run's end, takes
h = t_end - t.  So an unchanged step size gives the same c, bit for
bit, and the held factors are reused.

Samples, on the eta routes' `_grid`, are read from each step's
interpolating polynomial into one block of at most `_BLOCK` = 16 rows,
which spans steps: each step writes its samples at the block's next
free row, and the block is checked and reduced to per-sample mean level,
tail, total mass and geometric-shape residual when it is full, at the
last sample, and before any `SolverError` leaves the integrator (so a
floor or tail failure at an earlier s is the one reported).  Only the
final vector is kept, so memory grows as O(levels x 16).  Each step's
rows are one product written sample-major into the block, allocated once
per run, so every reduction runs along memory; a block's mean levels and
masses are one more product, of its clipped levels with the weights [n, 1].

One rule sizes every ladder, `truncation_levels`: n_max = ceil(40 nu) + 20
at a run's largest occupation nu keeps the quenched tail there below
e^-40.  `run_cycle` applies it to its plan before any route runs.  It and
`populations_from_quenched` refuse a ladder of more than `_MAX_LEVELS`
levels, whose run would not fit in memory, before anything is allocated.

Only the integrator imports scipy (its LAPACK wrappers): `import
molcool` and every run without the oracle never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .profiles import FrequencyProfile
from .solver import _grid, occupation_at
from .thermo import QuenchedState
from .units import DimensionlessParams

SAMPLES_PER_UNIT = 100  # output samples per tau_open
NEGATIVITY_FLOOR = -1e-14
TAIL_THRESHOLD = 1e-10  # largest estimated mass above n_max a run accepts
_RTOL, _ATOL = 1e-8, 1e-15  # BDF error control
_MAX_ORDER = 5
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)
# at each order, D[:order + 1]'s weights in the predicted state and in it less psi
_PREDICT = {k: np.stack([np.ones(k + 1), 1.0 - _GAMMA[: k + 1] / _ALPHA[k]])
            for k in range(1, _MAX_ORDER + 1)}
# step-size factors; the safety is scipy's 0.9 (2m + 1) / (2m + n) at n = 1 solve of m = 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_BLOCK = 16         # samples reduced at a time
_SPENT = dict(overwrite_dl=1, overwrite_d=1, overwrite_du=1)  # a solve's diagonals are scratch
_SHAPE_WINDOW = 51  # geometric residual over p_{n+1}/p_n for n < 51
# a run's peak RSS grows by 425-440 B per level (measured, 4e4-4e5 levels): < 0.9 GB at the cap
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
    form.  `populations` holds levels 0..n_max at s[-1] only; `accepted`
    and `rejected` count the integrator's steps, and `dgtsv`, `dgttrf`
    and `dgttrs` its LAPACK calls (ramp solves, held factorizations and
    held solves).
    """

    s: np.ndarray
    mean_n: np.ndarray
    tail_bound: np.ndarray
    mass: np.ndarray
    geometric_residual: np.ndarray
    populations: np.ndarray
    accepted: int
    rejected: int
    dgtsv: int
    dgttrf: int
    dgttrs: int

    @property
    def final(self) -> PopulationVector:
        """A copy of the final vector, with its tail bound."""
        return PopulationVector(p=self.populations.copy(), tail_bound=float(self.tail_bound[-1]))


def _check_ladder(levels) -> None:
    """Refuse a ladder of more than `_MAX_LEVELS` levels, an int or a float count."""
    if levels > _MAX_LEVELS:
        raise ValueError(
            f"a ladder of {levels:.3g} levels would exceed memory limits ({_MAX_LEVELS} allowed)"
        )


def truncation_levels(nu_max: float) -> int:
    """n_max = ceil(40 nu) + 20 for a run whose largest occupation is
    nu = `nu_max`: the quenched tail there, (nu/(nu+1))^(n_max+1), is below
    e^-40, since log1p(x) > 2x/(2 + x) for x > 0 gives (n_max + 1)
    log1p(1/nu) >= (40 nu + 21) 2/(2 nu + 1) > 40.  A ladder of more than
    `_MAX_LEVELS` levels is refused, one past float range included."""
    if not (math.isfinite(nu_max) and nu_max > 0.0):
        raise ValueError(f"nu_max must be positive, got {nu_max}")
    levels = 40.0 * nu_max  # inf past float range
    _check_ladder(levels + 21.0)  # levels 0..n_max
    return math.ceil(levels) + 20


def populations_from_quenched(state: QuenchedState, n_max: int) -> PopulationVector:
    """Truncated quenched Boltzmann populations p_n = (1/eta)(1 - 1/eta)^n.

    The mass above n_max is exactly (1 - 1/eta)^(n_max + 1); it must come
    in under `TAIL_THRESHOLD` or the truncation is rejected.  A ladder of
    more than `_MAX_LEVELS` levels is refused before anything is allocated.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_ladder(n_max + 1)
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


def _rates(d: DimensionlessParams, profile: FrequencyProfile, s: float):
    """(down, up) per-quantum rates g (nu + 1) and g nu at a step's s >= 0."""
    occ = occupation_at(d, profile, s)
    g = d.gamma_tau_g
    return g * (occ + 1.0), g * occ


def evolve_populations(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    init: PopulationVector,
    horizon: float = 10.0,
) -> PopulationTrajectory:
    """Integrate the truncated birth-death populations over `horizon`.

    Implicit multistep (NDF) on the generator's tridiagonal band,
    under the error control `_RTOL`/`_ATOL`.  Samples, `SAMPLES_PER_UNIT`
    per tau_open, are reduced as they are produced (see
    `PopulationTrajectory`); only the final vector is kept.  Aborts at the first sample where any
    population or the tail drops below `NEGATIVITY_FLOOR` (integrator
    failure) or the tail estimate exceeds `TAIL_THRESHOLD` (truncation
    too small for the schedule).
    """
    samples, _ = _grid(horizon, SAMPLES_PER_UNIT, profile.hold_start)
    reducer = _SampleReducer(samples, init.p.size)
    y0 = np.concatenate([init.p, [init.tail_bound]])
    return reducer.trajectory(*_evolve_bdf(d, profile, y0, samples, reducer))


class _SampleReducer:
    """Checks and reduces sample blocks, in order, into per-sample arrays.

    A block is a (k <= `_BLOCK`, levels + 1) array whose rows hold
    p_0..p_{n_max} and the tail at the next k samples, which may come from
    several integrator steps; it is read as it is and clipped in place.
    One min pass checks the floor and one max the tail, and only a failed
    check looks for its sample.  Each sample's mean level and level mass
    are the clipped levels times the (levels, 2) `weights` [n, 1], one
    product per block; `weights` is the transpose of one contiguous
    (2, levels) array, so the product reads each weight row along memory.
    """

    def __init__(self, samples: np.ndarray, n_levels: int):
        self.samples = samples
        self.weights = np.stack([np.arange(n_levels, dtype=float), np.ones(n_levels)]).T
        self.window = min(_SHAPE_WINDOW, n_levels - 1)
        self.mean_n, self.tail_bound, self.mass, self.geometric_residual = (
            np.empty(samples.size) for _ in range(4)
        )
        self.done = 0
        self.last = None

    def add(self, block: np.ndarray) -> None:
        lo, hi = self.done, self.done + block.shape[0]
        worst = block.min(axis=1)
        floor = worst.min()
        if not floor >= NEGATIVITY_FLOOR:  # nan included
            k = int(np.flatnonzero(~(worst >= NEGATIVITY_FLOOR))[0])
            raise SolverError(
                f"integrator failure: population {worst[k]:.3e} below the "
                f"{NEGATIVITY_FLOOR:g} floor at s = {self.samples[lo + k]:.6g}"
            )
        if floor < 0.0:
            # forgive sub-floor negative roundoff, in the tail estimate as in the levels
            np.maximum(block, 0.0, out=block)
        pops, tails = block[:, :-1], block[:, -1]
        if tails.max() > TAIL_THRESHOLD:
            k = int(np.flatnonzero(tails > TAIL_THRESHOLD)[0])
            raise SolverError(
                f"truncation too small: tail bound {tails[k]:.3e} exceeded threshold "
                f"{TAIL_THRESHOLD:.3e} at s = {self.samples[lo + k]:.6g}; increase n_max"
            )
        self.mean_n[lo:hi], level_mass = (pops @ self.weights).T
        self.tail_bound[lo:hi] = tails
        self.mass[lo:hi] = level_mass + tails
        w = self.window
        # an empty level in the window leaves its sample's residual inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = pops[:, 1 : w + 1] / pops[:, :w]
            mean = ratios.sum(axis=1) / w
            self.geometric_residual[lo:hi] = np.abs(ratios / mean[:, None] - 1.0).max(axis=1)
        if hi == self.samples.size:
            self.last = pops[-1].copy()
        self.done = hi

    def trajectory(self, accepted, rejected, dgtsv, dgttrf, dgttrs) -> PopulationTrajectory:
        return PopulationTrajectory(
            s=self.samples,
            mean_n=self.mean_n,
            tail_bound=self.tail_bound,
            mass=self.mass,
            geometric_residual=self.geometric_residual,
            populations=self.last,
            accepted=accepted,
            rejected=rejected,
            dgtsv=dgtsv,
            dgttrf=dgttrf,
            dgttrs=dgttrs,
        )


# `_change_d` and `_evolve_bdf` are adapted from scipy/integrate/_ivp/bdf.py, under its notice:
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.
# Redistribution and use in source and binary forms, with or without modification, are permitted
# provided that the following conditions are met: 1. Redistributions of source code must retain the
# above copyright notice, this list of conditions and the following disclaimer. 2. Redistributions
# in binary form must reproduce the above copyright notice, this list of conditions and the
# following disclaimer in the documentation and/or other materials provided with the distribution.
# 3. Neither the name of the copyright holder nor the names of its contributors may be used to
# endorse or promote products derived from this software without specific prior written permission.
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY EXPRESS OR
# IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND
# FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR
# CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL
# DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY,
# WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY
# WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def _difference_map(order, factor):
    """scipy's R(order, factor): with U = R(order, 1), (R U)^T maps the
    differences of one step onto those of a step `factor` times as long."""
    i = np.arange(1.0, order + 1.0)[:, None]
    m = np.zeros((order + 1, order + 1))
    m[0] = 1.0
    m[1:, 1:] = (i - 1.0 - factor * i.T) / i
    return np.cumprod(m, axis=0)


_U = {k: _difference_map(k, 1.0) for k in range(1, _MAX_ORDER + 1)}  # factor-independent


def _change_d(D, order, factor) -> None:
    """Rescale the difference array in place to a step `factor` times as long."""
    D[: order + 1] = (_difference_map(order, factor) @ _U[order]).T @ D[: order + 1]


def _norm(x) -> float:
    return math.sqrt(x @ x) / math.sqrt(x.size)  # root mean square


def _evolve_bdf(d, profile, y0, samples, reducer):
    """Step dy/ds = band(s) . y over `samples`, handing the steps' samples to
    `reducer` in blocks of up to `_BLOCK`; returns the (accepted, rejected)
    step counts and the (dgtsv, dgttrf, dgttrs) call counts.  A non-finite
    correction halves the step; one under ten float spacings at s fails.  The
    samples written before a `SolverError` are reduced before it leaves."""
    from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

    # column n of the generator: up (n + 1) p_n flows to row n + 1 (the tail at n = n_max),
    # down n p_n to row n - 1, and the diagonal loses both; the tail flows nowhere
    n_up, n_down = np.append(np.arange(1.0, y0.size), 0.0), np.append(np.arange(y0.size - 1.0), 0.0)

    def rhs(s, y):  # band(s) . y, for the first step's size only
        down, up = _rates(d, profile, s)
        rise, fall = up * n_up * y, down * n_down * y
        dy = -(rise + fall)
        dy[1:] += rise[:-1]
        dy[:-1] += fall[1:]
        return dy

    t, t_end = float(samples[0]), float(samples[-1])
    # the first step: Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4
    f0, scale = rhs(t, y0), _ATOL + _RTOL * np.abs(y0)
    d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
    h0 = min(1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _norm((rhs(t + h0, y0 + h0 * f0) - f0) / scale) / h0
    h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.5
    h = min(100.0 * h0, h1, t_end - t)

    D = np.empty((_MAX_ORDER + 3, y0.size))  # the backward differences, scaled to h
    D[0], D[1] = y0, f0 * h
    # a step's predicted and new state, its vectors (I - c band's diagonals: dl by column,
    # its last entry idle, du by column, its first idle), and the block of samples (with
    # their coefficients) whose first `pending` rows await the reducer
    pred, (dy, err, dl, dd, du) = np.empty((2, y0.size)), np.empty((5, y0.size))
    rows = min(_BLOCK, samples.size)
    block = np.empty((rows, y0.size))
    coef = np.ones((rows, _MAX_ORDER + 1))
    held_c = None  # dl, dd, du, du2 and ipiv hold the LU factors of the held I - c band
    order, n_equal, accepted, rejected, done, pending = 1, 0, 0, 0, 0, 0
    n_gtsv = n_gttrf = n_gttrs = 0
    try:
        while done < samples.size:
            while True:
                if h < 10.0 * (math.nextafter(t, math.inf) - t):
                    raise SolverError(f"population integration failed: step {h:.3e} fell "
                                      f"below the float spacing at s = {t:.6g}")
                t_new = t + h
                if t_new > t_end:  # only the last step's h is not the controller's
                    _change_d(D, order, (t_end - t) / h)
                    t_new, h, n_equal = t_end, t_end - t, 0
                # (I - c band) y_new = y_pred - psi, the NDF system, solved exactly
                np.matmul(_PREDICT[order], D[: order + 1], out=pred)
                c = h / _ALPHA[order]
                held = t_new >= profile.hold_start
                if not (held and c == held_c):
                    down, up = _rates(d, profile, t_new)  # a held t_new's are the hold's bits
                    np.multiply(-c * up, n_up, out=dl)
                    np.multiply(-c * down, n_down, out=du)
                    np.subtract(np.subtract(1.0, dl, out=dd), du, out=dd)  # the tail row's is 1
                    if held:
                        *_, du2, ipiv, info = dgttrf(dl[:-1], dd, du[1:], **_SPENT)
                        n_gttrf += 1
                    else:
                        *_, y_new, info = dgtsv(dl[:-1], dd, du[1:], pred[1], overwrite_b=1,
                                                **_SPENT)
                        n_gtsv += 1
                    if info != 0:
                        raise SolverError(f"population integration failed: singular at row {info}")
                    held_c = c if held else None
                if held:
                    y_new, _ = dgttrs(dl[:-1], dd, du[1:], du2, ipiv, pred[1], overwrite_b=1)
                    n_gttrs += 1
                np.subtract(y_new, pred[0], out=dy)
                np.abs(y_new, out=scale)
                np.add(_ATOL, np.multiply(_RTOL, scale, out=scale), out=scale)
                error = np.multiply(_ERROR_CONST[order], dy, out=err)
                error_norm = _norm(np.divide(error, scale, out=error))
                if error_norm <= 1.0:
                    break
                factor = 0.5  # for a non-finite correction
                if math.isfinite(error_norm):
                    factor = max(_MIN_FACTOR, _SAFETY * error_norm ** (-1.0 / (order + 1)))
                _change_d(D, order, factor)
                h, n_equal, rejected = h * factor, 0, rejected + 1
            accepted, n_equal, t = accepted + 1, n_equal + 1, t_new
            np.subtract(dy, D[order + 1], out=D[order + 2])
            D[order + 1] = dy
            for i in reversed(range(order + 1)):
                D[i] += D[i + 1]
            if n_equal > order:
                # the order (one down, kept, one up) whose next step may be longest; the
                # kept order's error norm is the accepted step's own
                norms = [np.inf, error_norm, np.inf]
                for i, k in ((0, order - 1), (2, order + 1)):
                    if 0 < k <= _MAX_ORDER:
                        np.multiply(_ERROR_CONST[k], D[k + 1], out=err)
                        norms[i] = _norm(np.divide(err, scale, out=err))
                with np.errstate(divide="ignore"):
                    factors = np.array(norms) ** (-1.0 / np.arange(order, order + 3))
                order += int(np.argmax(factors)) - 1
                factor = min(_MAX_FACTOR, _SAFETY * float(factors.max()))
                _change_d(D, order, factor)
                h, n_equal = h * factor, 0

            # the samples in (t_old, t], and s = 0 with the first, from the step's polynomial,
            # at the block's next free rows: one product with D[0] folded in by a leading
            # coefficient of 1; a full block, or the last sample, goes to the reducer
            upto = int(np.searchsorted(samples, t, side="right"))
            if upto > done:
                j = np.arange(order)
                origin, width = t - h * j, h * (1.0 + j)
                while done < upto:
                    k = min(rows - pending, upto - done)
                    cf = coef[pending : pending + k, : order + 1]
                    x = np.subtract(samples[done : done + k, None], origin, out=cf[:, 1:])
                    np.cumprod(np.divide(x, width, out=x), axis=1, out=x)
                    np.matmul(cf, D[: order + 1], out=block[pending : pending + k])
                    pending, done = pending + k, done + k
                    if pending == rows or done == samples.size:
                        # zeroed first, so that a block the reducer refuses is not handed over twice
                        k, pending = pending, 0
                        reducer.add(block[:k])
    except SolverError:
        # an earlier sample's floor or tail failure is the one reported
        if pending:
            reducer.add(block[:pending])
        raise
    return accepted, rejected, n_gtsv, n_gttrf, n_gttrs
