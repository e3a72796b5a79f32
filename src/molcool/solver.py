"""Mean-excitation dynamics of the cavity mode against the thermal bath.

In the slow-sweep regime the full state stays of quenched Boltzmann form
and the only dynamical quantity is eta(s) = <n>(s) + 1, obeying the
linear relaxation law (s = t/tau_open, g = gamma*tau_open)

    d(eta)/ds = -g*eta + g*(nu(theta(s)) + 1).

Two independent routes integrate it: a fixed-step explicit 4th-order
stepper (`evolve_eta_ode`) and the exact exponential-kernel solution
evaluated by adaptive quadrature (`evolve_eta_closed_form`).  The cycle
engine cross-checks one against the other on every run.

The stepper is classical RK4 on the stage grid of substep edges and
midpoints, run one sample at a time rather than one substep at a time.
For this linear law one substep of size h is exactly

    eta + alpha (u0 - g eta) + (h/6) (Q (um - u0) + (u1 - u0)),

with z = g h, alpha = (h/6)(6 - 3z + z^2 - z^3/4), Q = 4 - 2z + z^2/2
and u = g (nu + 1) at the substep's start, midpoint and end, so the m
substeps of a sample interval compose to eta + A (u0 - g eta) + G_k, with
A = alpha sum_j R^j, R = 1 - g alpha, and G_k the interval's forcing
beyond its first u0 carried forward by powers of R (one matrix product
for all intervals).  It is still RK4, with RK4's O(h^4) error against
the kernel route's quadrature error, so the cross-check keeps its
independence; and in this drive form constant forcing adds exactly
nothing, a fixed point stays put exactly and g = 0 freezes eta.

The kernel route's adaptive Simpson runs on `_QUAD_CHUNK` intervals at
a time: each bisection level evaluates the forcing at all pending pieces
in one `omega_at`/`nu_of` call, as the stepper does, and halves only the
pieces that miss their tolerance.  Too many pending pieces, or too deep a
bisection, raises `SolverError` naming the `s` range, so over-stiff
coupling fails fast instead of hanging or exhausting memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .profiles import FrequencyProfile, omega_at
from .thermo import nu_of, ratio_from_eta
from .units import DimensionlessParams

_MIN_STEP = 1e-12
_MAX_STAGE_POINTS = 200_000_000  # fixed-step stage grid: substep edges and midpoints
_QUAD_TOL = 1e-12           # absolute tolerance of each kernel-route interval integral
_QUAD_MAX_DEPTH = 40
_QUAD_CHUNK = 1024          # intervals integrated together
_QUAD_MAX_PIECES = 1 << 18  # pending pieces allowed per chunk; bounds memory and time


@dataclass(eq=False)
class EtaTrajectory:
    """Sampled eta dynamics, derived observables, and solver metadata."""

    s: np.ndarray
    omega_over_omega1: np.ndarray
    eta: np.ndarray
    mean_n: np.ndarray
    T_ratio: np.ndarray
    method: str
    step_size: float | None = None
    tolerance: float | None = None


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a recovery-time search; `s` is None when not recovered."""

    recovered: bool
    s: float | None
    horizon: float


def _check_run(d: DimensionlessParams, profile: FrequencyProfile, horizon, samples_per_unit):
    if profile.freq_ratio_r != d.freq_ratio_r:
        raise ValueError(
            f"profile frequency ratio {profile.freq_ratio_r} does not match "
            f"the dimensionless parameters ({d.freq_ratio_r})"
        )
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    n_intervals = int(round(horizon * samples_per_unit))
    if n_intervals < 1:
        raise ValueError("horizon shorter than one sample interval")
    return n_intervals


def _substeps_per_interval(horizon: float, n_intervals: int, step_size: float) -> int:
    """Equal substeps of at most `step_size` per sample interval.

    Checked before a fixed-step route allocates its stage grid of
    2 * m * n_intervals + 1 points, so a tiny step fails fast instead of
    exhausting memory.
    """
    if not (math.isfinite(step_size) and step_size >= _MIN_STEP):
        raise SolverError(
            f"step-size underflow: step {step_size} below the smallest usable step {_MIN_STEP}"
        )
    m = max(1, math.ceil(horizon / n_intervals / step_size - 1e-9))
    if 2 * m * n_intervals + 1 > _MAX_STAGE_POINTS:
        raise SolverError(
            f"step-size underflow: a substep grid of {2 * m * n_intervals + 1} points would "
            f"exceed memory limits ({_MAX_STAGE_POINTS} allowed)"
        )
    return m


def _default_eta0(d: DimensionlessParams) -> float:
    # thermalized at the closed frequency, theta = theta0 * r
    return nu_of(d.theta0 * d.freq_ratio_r) + 1.0


def _check_eta0(eta0: float) -> float:
    if not (math.isfinite(eta0) and eta0 > 1.0):
        raise ValueError(f"eta0 must exceed 1 (the ground-state limit), got {eta0}")
    return float(eta0)


def _finish(d, profile, s, eta, method, step_size=None, tolerance=None) -> EtaTrajectory:
    w = omega_at(profile, s)
    theta = d.theta0 * d.freq_ratio_r * w
    return EtaTrajectory(
        s=s,
        omega_over_omega1=w,
        eta=eta,
        mean_n=eta - 1.0,
        T_ratio=ratio_from_eta(eta, theta),
        method=method,
        step_size=step_size,
        tolerance=tolerance,
    )


def evolve_eta_ode(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    eta0: float | None = None,
    horizon: float = 10.0,
    *,
    step_size: float = 1e-4,
    samples_per_unit: int = 2000,
) -> EtaTrajectory:
    """Fixed-step explicit 4th-order integration of the eta relaxation law.

    `step_size` is an upper bound on the substep: every inter-sample
    interval is split into equally many equal substeps, so sample times
    are hit exactly and halving the step exactly doubles the substep
    count.  Output sampling (`samples_per_unit` per tau_open) is
    decoupled from the integration step.
    """
    n_intervals = _check_run(d, profile, horizon, samples_per_unit)
    m = _substeps_per_interval(horizon, n_intervals, step_size)
    eta0 = _default_eta0(d) if eta0 is None else _check_eta0(eta0)
    g = d.gamma_tau_g
    n_sub = m * n_intervals
    # stage grid holds every substep edge and midpoint
    ts = np.linspace(0.0, horizon, 2 * n_sub + 1)
    u = g * (nu_of(d.theta0 * d.freq_ratio_r * omega_at(profile, ts)) + 1.0)
    h = horizon / n_sub
    # one RK4 substep of eta' = u - g eta, exactly:
    #   eta + alpha (u0 - g eta) + (h/6) (Q (um - u0) + (u1 - u0))
    z = g * h
    alpha = h / 6.0 * (6.0 - 3.0 * z + z * z - z * z * z / 4.0)
    q = 4.0 - 2.0 * z + z * z / 2.0
    r = 1.0 - g * alpha
    # m substeps from sample k: eta + A (u0[k] - g eta) + drive[k], with
    # A = alpha sum_j r^j and drive[k] the substeps' forcing beyond u0[k],
    # each carried to the sample's end by its power of r
    u0 = u[0:-1:2].reshape(n_intervals, m)
    um = u[1::2].reshape(n_intervals, m)
    u1 = u[2::2].reshape(n_intervals, m)
    # an unstable step overflows here; the check on eta below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        weights = r ** np.arange(m - 1, -1, -1, dtype=float)
        a_m = alpha * float(weights.sum())
        drive = (alpha * (u0 - u0[:, :1]) + h / 6.0 * (q * (um - u0) + (u1 - u0))) @ weights
    eta = float(eta0)
    out = [eta]
    for u0_k, drive_k in zip(u0[:, 0].tolist(), drive.tolist()):
        eta = eta + a_m * (u0_k - g * eta) + drive_k
        out.append(eta)
    out = np.array(out)
    # RK4's stability polynomial r is positive for every real z, so an
    # unstable step's runaway keeps its sign and still shows at the sample's end
    bad = np.flatnonzero(~((out > 1.0) & (out < math.inf)))
    if bad.size:
        k = bad[0]
        why = "at or below the ground-state limit" if out[k] <= 1.0 else "the fixed step is unstable"
        raise SolverError(
            f"model violation: eta reached {out[k]} at s = {ts[2 * m * k]:.6g} ({why})"
        )
    return _finish(d, profile, ts[:: 2 * m], out, "rk4-fixed", step_size=h)


def evolve_eta_closed_form(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    eta0: float | None = None,
    horizon: float = 10.0,
    *,
    samples_per_unit: int = 2000,
) -> EtaTrajectory:
    """Exact exponential-kernel solution of the eta relaxation law.

    Sample to sample the linear law propagates exactly as

        eta(s + D) = exp(-g D) eta(s)
                     + integral over [0, D] of g exp(-g (D - v)) (nu(theta(s + v)) + 1) dv,

    and each interval integral is evaluated by adaptive Simpson to
    absolute tolerance `_QUAD_TOL`.  No finite-difference stepping is
    involved, which makes this route the authoritative one in cross-checks.
    """
    n_intervals = _check_run(d, profile, horizon, samples_per_unit)
    eta0 = _default_eta0(d) if eta0 is None else _check_eta0(eta0)
    g = d.gamma_tau_g
    t0r = d.theta0 * d.freq_ratio_r
    samples = np.linspace(0.0, horizon, n_intervals + 1)
    starts = samples[:-1]
    widths = samples[1:] - starts

    def integrand(start, v, width):
        occ = nu_of(t0r * omega_at(profile, start + v))
        return g * np.exp(g * (v - width)) * (occ + 1.0)

    integrals = np.concatenate([
        _simpson_batch(integrand, starts[lo:lo + _QUAD_CHUNK], widths[lo:lo + _QUAD_CHUNK])
        for lo in range(0, n_intervals, _QUAD_CHUNK)
    ])
    out = np.empty(n_intervals + 1)
    out[0] = eta = float(eta0)
    for k, (width, value) in enumerate(zip(widths.tolist(), integrals.tolist())):
        eta = math.exp(-g * width) * eta + value
        if not eta > 1.0:
            raise SolverError(
                f"model violation: eta reached {eta} at s = {samples[k + 1]:.6g} "
                "(at or below the ground-state limit)"
            )
        out[k + 1] = eta
    return _finish(d, profile, samples, out, "closed-form", tolerance=_QUAD_TOL)


def _simpson_batch(f, start, width):
    """Integrals of f(start[i], v, width[i]) over v in [0, width[i]], for every i.

    Bisecting Simpson rule: a piece is accepted once |S_fine - S_coarse|
    <= 15 * (its share of `_QUAD_TOL`), or once it is below float
    resolution, and S_fine + (S_fine - S_coarse)/15 joins its interval's total.
    """
    total = np.zeros(start.size)
    k = np.arange(start.size)
    a = np.zeros(start.size)
    b = width
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(f(np.tile(start, 3), np.concatenate([a, m, b]), np.tile(width, 3)), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = _QUAD_TOL
    for depth in range(_QUAD_MAX_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.split(
            f(np.tile(start[k], 2), np.concatenate([lm, rm]), np.tile(width[k], 2)), 2
        )
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = (left + right) - whole
        # lm == a or rm == m means the piece is below float resolution
        done = (np.abs(delta) <= 15.0 * tol) | (lm <= a) | (rm >= b)
        np.add.at(total, k[done], (left + right + delta / 15.0)[done])
        fail = np.flatnonzero(~done)
        if fail.size == 0:
            return total
        if depth >= _QUAD_MAX_DEPTH or 2 * fail.size > _QUAD_MAX_PIECES:
            i = fail[0]
            raise SolverError(
                f"kernel quadrature did not converge on s in "
                f"[{float(start[k[i]] + a[i])!r}, {float(start[k[i]] + b[i])!r}] at depth {depth}: "
                f"local error estimate {abs(delta[i]) / 15.0:.3e} > tolerance {tol:.3e}"
            )
        # children: [a, m] refines `left`, [m, b] refines `right`
        k = np.tile(k[fail], 2)
        a, fa, m, fm, b, fb, whole = [
            np.concatenate([lo[fail], hi[fail]])
            for lo, hi in ((a, m), (fa, fm), (lm, rm), (flm, frm), (m, b), (fm, fb), (left, right))
        ]
        tol = 0.5 * tol


def recovery_time(traj, target: float = 0.997) -> RecoveryResult:
    """First s at or after the T_ratio minimum where T_ratio >= target.

    Works on any object with `s` and `T_ratio` sample arrays (solver
    trajectories and emitted records alike).  The sub-sample crossing is
    located by bisection on the piecewise-linear interpolant between the
    bracketing samples.  When the trajectory never crosses the target the
    result carries `recovered=False` and the horizon that was searched.
    """
    s = np.asarray(traj.s, dtype=float)
    ratio = np.asarray(traj.T_ratio, dtype=float)
    if s.size < 2:
        raise ValueError("trajectory needs at least two samples")
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"target must be positive, got {target}")
    horizon = float(s[-1])
    i_min = int(np.argmin(ratio))
    if ratio[i_min] >= target:
        # target at or below the minimum: the crossing is the minimum itself
        return RecoveryResult(True, float(s[i_min]), horizon)
    above = np.nonzero(ratio[i_min:] >= target)[0]
    if above.size == 0:
        return RecoveryResult(False, None, horizon)
    j = i_min + int(above[0])
    lo, hi = float(s[j - 1]), float(s[j])
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if float(np.interp(mid, s, ratio)) >= target:
            hi = mid
        else:
            lo = mid
    return RecoveryResult(True, hi, horizon)
