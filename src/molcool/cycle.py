"""Cycle orchestration and delivery.

Runs full cooling cycles with the exponential-kernel solver as the
authority and the fixed-step route (plus, optionally, the Fock-level
oracle) as cross-checks, sweeps one parameter axis across many runs,
and emits deterministic CSV files, plot scripts, and config files.

`run_cycle` only orchestrates.  It walks the segment plan (close, hold,
open; or the opening alone), calls every route on each segment on the
grid its module sets, joins each route's segments with `_stitch`,
and compares routes with `_cross_check`, the one place a disagreement
is measured and refused.  `TimeSeriesRecord.from_trajectory` derives
the observables from the kernel route's eta, once.

A `TimeSeriesRecord` is immutable.  Its construction rounds every value
to the 12 significant digits the CSV prints and keeps the decimal
digits that rounding computed, all in one row-major layout with one row
per sample as in the CSV, so `emit_csv` builds each cell from them by
four stores of overlapping 8- and 4-byte words looked up in tables (or
"%.11e", in a block holding a three-digit exponent), and no value's
digits are worked out twice.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import solver
from .errors import SolverCrossCheckError
from .oracle import (
    PopulationTrajectory,
    evolve_populations,
    populations_from_quenched,
    truncation_levels,
)
from .profiles import FrequencyProfile, ProfileShape, omega_at
from .solver import (
    EtaTrajectory,
    RecoveryResult,
    evolve_eta_closed_form,
    evolve_eta_ode,
    occupation_at,
    recovery_time,
)
from .thermo import GROUND_STATE_EPS, QuenchedState, thermal_eta
from .units import DimensionlessParams

SOLVER_AGREEMENT_RTOL = 1e-6   # fixed-step route must match the kernel route this well
ORACLE_AGREEMENT_RTOL = 1e-3   # Fock-level mean occupation + 1 vs eta

CSV_HEADER = "s,omega_over_omega1,eta,mean_n,T_ratio"
SWEEP_CSV_HEADER = "axis_value,min_T_ratio,argmin_s,recovery_s,recovered,error"

# anchors for the pinned default cycle: (expected value, absolute tolerance)
REFERENCE_MIN_T_RATIO = (0.65, 0.05)
REFERENCE_RECOVERY_S = (6.0, 1.0)

SWEEP_AXES = ("theta0", "freq_ratio_r", "gamma_tau_g")
_MAX_SWEEP_VALUES = 1_000_000  # at 0.03 s or more per cycle, over 8 h of runs


@dataclass(frozen=True)
class ThermalClosed:
    """Start the run already thermalized at the closed (stiff) frequency."""

    name: ClassVar[str] = "thermal-closed"


@dataclass(frozen=True)
class FiniteDwell:
    """Extension mode: start thermal at the open frequency, close over one
    time unit with the reversed sine ramp, hold closed for `dwell` units,
    then open.  The pre-opening phases appear at negative s in the output.
    """

    name: ClassVar[str] = "finite-dwell"
    dwell: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dwell) and self.dwell >= 0.0):
            raise ValueError(f"dwell must be finite and >= 0, got {self.dwell}")


_INIT_MODES = {mode.name: mode for mode in (ThermalClosed, FiniteDwell)}


@dataclass(frozen=True)
class CycleConfig:
    """One full cooling-cycle run.  `profile` is the opening's schedule;
    its frequency ratio r is `dimensionless.freq_ratio_r`."""

    dimensionless: DimensionlessParams
    profile: FrequencyProfile = field(default_factory=FrequencyProfile)
    init_mode: ThermalClosed | FiniteDwell = field(default_factory=ThermalClosed)
    horizon: float = 10.0
    with_oracle: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon >= 1.0):
            raise ValueError(f"horizon must cover at least the opening, got {self.horizon}")
        if not isinstance(self.profile, FrequencyProfile):
            raise ValueError(f"profile must be a FrequencyProfile, got {self.profile!r}")
        if not isinstance(self.init_mode, (ThermalClosed, FiniteDwell)):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


def default_cycle_config() -> CycleConfig:
    """The pinned reference cycle (theta0=0.032, r=2, g=1, sine opening)."""
    return CycleConfig(
        dimensionless=DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
    )


def _override(base: CycleConfig, **settings) -> CycleConfig:
    """`base` with each of `settings` that is not None applied: the
    `SWEEP_AXES` groups, init_mode by name, dwell, horizon, with_oracle,
    output_dir and profile.  Config files, CLI flags and sweep values all
    come through here, so one rule holds for each: a mode name equal to
    the base's keeps its dwell, and a dwell applies under finite-dwell only.
    """
    given = {key: value for key, value in settings.items() if value is not None}
    dims = {axis: given.pop(axis) for axis in SWEEP_AXES if axis in given}
    mode = base.init_mode
    name = given.pop("init_mode", mode.name)
    if name != mode.name:
        if name not in _INIT_MODES:
            raise ValueError(f"unknown init_mode {name!r}; expected one of {sorted(_INIT_MODES)}")
        mode = _INIT_MODES[name]()
    if "dwell" in given:
        if not isinstance(mode, FiniteDwell):
            raise ValueError("dwell applies to init_mode finite-dwell only")
        mode = FiniteDwell(given.pop("dwell"))
    return replace(
        base, dimensionless=replace(base.dimensionless, **dims), init_mode=mode, **given
    )


_POW10 = np.array([float(10**k) for k in range(23)])  # every one an exact double
_BLOCK_ROWS = 2048  # record rows per `_decimal12` call and per CSV block; bounds temporaries


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# floor(log10 2**n), n = b - 1023, for each biased exponent b: for no
# 0 < |n| <= 1074 is n log10 2 within 4.5e-4 of an integer, so the floor
# of its double product is the exact one
_BINADE_LOG10 = _read_only(np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.int16))
# the power of ten that may lie inside binade b (inf at b = 2047, which no finite value has)
with np.errstate(over="ignore"):
    _TEN_ABOVE = _read_only(10.0 ** (_BINADE_LOG10 + 1.0))
_k = np.clip(11 - (_BINADE_LOG10[:, None] + np.arange(2)), 0, 22).reshape(-1)
_SCALE = _read_only(_POW10[_k])  # 10**k at 2 b + c, c = 1 for |x| at or above _TEN_ABOVE[b]
_EXPONENT = _read_only((11 - _k).astype(np.int16))  # 11 - k, the exponent printed with it
del _k


def _decimal12(v: np.ndarray, out=None):
    """(q, d, e): q = float("%.11e" % x) for each x in the finite array v,
    of any shape, with the mantissa d (int64) and exponent e (int16) of
    `"%.11e" % abs(x)`, which prints as d's 12 digits with a point after
    the first, then e.  Written into `out` = (q, d, e) when given, whose q
    may be v itself; new arrays otherwise.

    Fast path (Clinger's exact case): |x| is multiplied by the exact power
    p = 10**k, k = clip(11 - floor(log10|x|), 0, 22), and e = 11 - k.
    floor(log10|x|) is read from the biased exponent b of |x|: it is
    `_BINADE_LOG10[b]`, plus one where |x| is at or above `_TEN_ABOVE[b]`,
    the one power of ten that may lie inside that binade; p and e are
    looked up from that one compare in the 2 x 2,048-entry `_SCALE` and
    `_EXPONENT`.  The product is correctly rounded, every half-integer
    below 10**12 is a double and rounding is monotone, so a product not on
    a half lies on the exact one's side of every half.  Where it lies in
    [10**11, 10**12) and not on a half, its rint r is the printed mantissa
    whatever k was picked; r / p, both operands exact, is |q|.  A product
    that rounds up to r = 10**12 prints as 1.00000000000 at the next
    exponent, so d = 10**11 and e + 1 there, and r / p is |q| as before.
    The clip puts zero, |x| < 1e-11 and |x| >= 1e12 outside that range.
    Those elements, a k one off (a power of ten rounded across |x|) and
    the products on a half go through `_printed_digits` (zero gives
    d = e = 0).
    Only a block that holds a sign bit has its signs copied back.
    """
    if out is None:
        out = (np.empty(v.shape), np.empty(v.shape, np.int64), np.empty(v.shape, np.int16))
    q, d, e = out
    a = np.abs(v)
    index = a.view(np.int64) >> 52  # b, then 2 b + c
    p = _TEN_ABOVE.take(index)
    index += index
    np.add(index, 1, out=index, where=a >= p)
    # every index is in range; mode "clip" writes into out unbuffered
    _EXPONENT.take(index, out=e, mode="clip")
    p = _SCALE.take(index, out=p, mode="clip")
    scaled = np.multiply(a, p, out=a)
    r = np.rint(scaled)
    frac = np.subtract(scaled, r)
    slow = np.abs(frac, out=frac) == 0.5
    slow |= scaled < 1e11
    slow |= scaled >= 1e12
    slow = slow.ravel().nonzero()[0]
    # read from v before q, which may be v, is written
    printed = [_printed_digits(abs(x)) for x in v.flat[slow].tolist()]
    signed = np.signbit(v).any()
    # what these leave in the elements off the fast path is overwritten below
    abs_q = np.divide(r, p, out=scaled if signed else q)
    r.flat[slow] = 0.0
    # a mantissa that rounds up to 10**12 prints as 1.00000000000 at the next exponent
    up = r == 1e12
    np.copyto(r, 1e11, where=up)
    e += up
    np.copyto(d, r, casting="unsafe")
    for i, (value, mantissa, exponent) in zip(slow.tolist(), printed):
        abs_q.flat[i], d.flat[i], e.flat[i] = value, mantissa, exponent
    if signed:
        np.copysign(abs_q, v, out=q)
    return q, d, e


def _printed_digits(x: float) -> tuple[float, int, int]:
    """(float(text), mantissa, exponent) of text = "%.11e" % x, x >= 0:
    `_decimal12`'s path for the values its product cannot place."""
    text = "%.11e" % x
    return float(text), int(text[0] + text[2:13]), int(text[14:])


_COLUMNS = CSV_HEADER.split(",")
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\r\n")))  # deleted, a row leaves _ROW_ENDS
_ROW_ENDS = b"," * (len(_COLUMNS) - 1) + b"\n"


@dataclass(frozen=True, eq=False)
class TimeSeriesRecord:
    """Sampled cycle output, one row per sample, stored pre-rounded to the
    12 significant digits that the CSV emitter writes.

    A record is immutable: its fields cannot be reassigned and its
    column arrays are read-only.  `_quantized` = (q, d, e) holds, in one
    row-major (samples, 5) layout as in the CSV, the values q, each
    column stored into q in place and rounded there by `_decimal12`,
    `_BLOCK_ROWS` rows per call, and the
    mantissas d and exponents e that print them, written there too (e
    looked up from each value's binary exponent and one compare), from
    which `emit_csv` formats the cells one contiguous row block at a
    time, four overlapping-word stores per cell (`_format_cells`).
    Each column is a view of q.  The sample times must increase strictly
    as printed: each rounded s is compared with the one before it.
    """

    s: np.ndarray
    omega_over_omega1: np.ndarray
    eta: np.ndarray
    mean_n: np.ndarray
    T_ratio: np.ndarray
    _quantized: tuple = field(init=False, repr=False)

    def __post_init__(self):
        cols = [np.asarray(getattr(self, name), dtype=float).reshape(-1) for name in _COLUMNS]
        n = cols[0].size
        if any(c.size != n for c in cols):
            raise ValueError("record columns must have equal length")
        q = np.empty((n, len(cols)))
        for j, column in enumerate(cols):
            q[:, j] = column
        if not np.isfinite(q).all():
            raise ValueError("record values must all be finite")
        d = np.empty(q.shape, np.int64)
        e = np.empty(q.shape, np.int16)
        for lo in range(0, n, _BLOCK_ROWS):
            b = slice(lo, lo + _BLOCK_ROWS)
            _decimal12(q[b], out=(q[b], d[b], e[b]))
        for a in (q, d, e):
            a.flags.writeable = False
        for name, column in zip(_COLUMNS, q.T):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_quantized", (q, d, e))
        s = q[:, 0]
        if not (s[1:] > s[:-1]).all():
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.s.size)

    @classmethod
    def from_trajectory(cls, traj: EtaTrajectory, omega_over_omega1, theta0_r: float):
        """The record of `traj` under the schedule `omega_over_omega1` at
        theta0 * r = `theta0_r`: the one place mean_n and T_ratio are derived.
        A non-finite sample or one at or below the ground-state limit is named by its s;
        T_ratio is `thermo.ratio_from_eta`'s expression, without its second check."""
        ok = (traj.eta > 1.0 + GROUND_STATE_EPS) & (traj.eta < math.inf)
        if not ok.all():
            i = int(np.argmin(ok))  # the first sample that fails
            eta = float(traj.eta[i])
            fault = f"at or below the ground-state limit 1 + {GROUND_STATE_EPS:g}"
            raise ValueError(f"eta = {eta!r} at s = {traj.s[i]:.6g} is "
                             + (fault if math.isfinite(eta) else "not finite"))
        ratio = theta0_r * omega_over_omega1 / -np.log1p(-1.0 / traj.eta)
        return cls(traj.s, omega_over_omega1, traj.eta, traj.eta - 1.0, ratio)


@dataclass(frozen=True)
class CycleSummary:
    """A record's headline numbers: its lowest T_ratio, `min_t_ratio`, and
    the s of its first sample there, `argmin_s`; the `recovery` search
    from that minimum back to `solver.RECOVERY_TARGET`; and eta at the last
    sample, `final_eta`."""

    min_t_ratio: float
    argmin_s: float
    recovery: RecoveryResult
    final_eta: float


@dataclass(eq=False)
class CycleResult:
    """Everything a cycle run produced: the rounded record, its summary,
    each cross-check's margin, and (when requested) the stitched Fock-level
    oracle trajectory.  `margins` maps "solver", and "oracle" in a run with
    the oracle, to the check's (worst relative disagreement, its s)."""

    record: TimeSeriesRecord
    summary: CycleSummary
    margins: dict[str, tuple[float, float]]
    oracle: PopulationTrajectory | None = None


def _plan_segments(cfg: CycleConfig):
    """Initial eta plus (global start, profile, duration) for each phase."""
    d = cfg.dimensionless
    if isinstance(cfg.init_mode, ThermalClosed):
        eta0 = thermal_eta(d.theta0 * d.freq_ratio_r)
        return eta0, [(0.0, cfg.profile, cfg.horizon)]
    dwell = cfg.init_mode.dwell
    eta0 = thermal_eta(d.theta0)  # thermal at the open frequency
    segments = [(-1.0 - dwell, FrequencyProfile(ProfileShape.REVERSED_SINE_CLOSING), 1.0)]
    if -1.0 - dwell < -1.0:  # a dwell too short to move the close off s = -1 is none
        segments.append((-dwell, FrequencyProfile(ProfileShape.CONSTANT), dwell))
    segments.append((0.0, cfg.profile, cfg.horizon))
    return eta0, segments


def _largest_occupation(d: DimensionlessParams, segments) -> float:
    """The largest occupation over the plan's (start, profile, duration)
    `segments`, inf past float range: at a segment's start, kinks or end,
    between which omega is monotone (`FrequencyProfile.kinks`)."""
    nu_max = 0.0
    for _, prof, duration in segments:
        ends = [0.0, *(k for k in prof.kinks if 0.0 < k < duration), duration]
        nu_max = max(nu_max, float(occupation_at(d, prof, np.array(ends)).max()))
    return nu_max


_ORACLE_SAMPLES = ("s", "mean_n", "tail_bound", "mass", "geometric_residual")
_ORACLE_COUNTS = ("accepted", "rejected", "dgtsv", "dgttrf", "dgttrs")  # summed over segments


def _join(arrays):
    """Segment arrays end to end, each later one's first sample (its predecessor's last) dropped."""
    return np.concatenate([arrays[0]] + [a[1:] for a in arrays[1:]])


def _stitch(parts, segments, per_sample):
    """The last segment's trajectory with each `per_sample` field joined
    across all segments by `_join`, s shifted to the global axis."""

    def joined(name):
        arrays = [getattr(part, name) for part in parts]
        if name == "s":
            arrays = [start + a for (start, _, _), a in zip(segments, arrays)]
        return _join(arrays)

    return replace(parts[-1], **{name: joined(name) for name in per_sample})


def _cross_check(route, disagreement, s, value, reference, rtol) -> tuple[float, float]:
    """Raise SolverCrossCheckError where `value` is furthest from `reference`, relative to
    it, unless that is at most `rtol` (nan is not); else return that margin and its s."""
    rel = np.abs(value - reference) / reference
    worst = int(np.argmax(rel))  # the first nan, if any
    if not rel[worst] <= rtol:
        raise SolverCrossCheckError(
            f"{route} cross-check failed: {disagreement} by {rel[worst]:.3e} relative "
            f"at s = {s[worst]:.6g} (allowed {rtol:g})"
        )
    return float(rel[worst]), float(s[worst])


def _nearest_indices(grid: np.ndarray, query: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(grid, query), 1, grid.size - 1)
    prefer_left = (query - grid[idx - 1]) <= (grid[idx] - query)
    return idx - prefer_left.astype(int)


def _record_omega(profile: FrequencyProfile, s: np.ndarray, r: float) -> np.ndarray:
    """`omega_at(profile, s, r)` on the ascending samples s, bit for bit,
    evaluated up to the first sample at or past `hold_start` only: from
    there on omega_at returns that sample's bits (`profiles`)."""
    head = omega_at(profile, s[: np.searchsorted(s, profile.hold_start) + 1], r)
    if head.size == s.size:
        return head
    omega = np.empty_like(s)
    omega[: head.size] = head
    omega[head.size :] = head[-1]
    return omega


def run_cycle(cfg: CycleConfig) -> CycleResult:
    """Run one full cycle with both eta solvers and return the consensus.

    The exponential-kernel route provides the reported values; the
    fixed-step route must agree within SOLVER_AGREEMENT_RTOL on eta at
    every sample or the run fails with "solver cross-check failed".
    With `cfg.with_oracle`, the Fock-level populations are evolved too
    and their mean occupation + 1 must match eta within
    ORACLE_AGREEMENT_RTOL at the oracle's (coarser) samples, each route
    on the grid its module sets.  A start past float range, or a forcing
    above half of it, is refused first.
    """
    d = cfg.dimensionless
    # refused before any occupation: times an omega that rounds to 0 it is nan
    if d.theta0 * d.freq_ratio_r == math.inf:
        raise ValueError(
            f"the closed splitting theta0 r = {d.theta0:.3g} x {d.freq_ratio_r:.3g} is past "
            "float range"
        )
    with np.errstate(over="ignore", divide="ignore"):
        eta0, segments = _plan_segments(cfg)
        nu_max = _largest_occupation(d, segments)
    # `TimeSeriesRecord.from_trajectory` would refuse this start at its first sample
    if not eta0 > 1.0 + GROUND_STATE_EPS:
        raise ValueError(
            f"eta0 must exceed 1 + {GROUND_STATE_EPS:g} (the ground-state limit), got {eta0}"
        )
    forcing = d.gamma_tau_g * (nu_max + 1.0)  # inf past float range, or nan at g = 0
    if not (eta0 < math.inf and forcing <= solver._MAX_FORCING):
        raise ValueError(
            f"eta0 = {eta0:.3g} and the forcing g (nu + 1) = {forcing:.3g} at the largest "
            f"occupation nu = {nu_max:.3g} must be finite, the forcing at most "
            f"{solver._MAX_FORCING:.3g} (theta0 too small or g too large)"
        )
    # the routes' grids, the kernel's g D and the oracle's ladder pass their
    # checks before any route runs
    for _, _, duration in segments:
        solver._substeps(duration, d.gamma_tau_g)
    if cfg.with_oracle:
        pv = populations_from_quenched(QuenchedState(eta=eta0), truncation_levels(nu_max))

    kernel, rk4 = [], []
    eta_kernel = eta_rk4 = eta0
    for _, prof, duration in segments:
        kernel.append(evolve_eta_closed_form(d, prof, eta_kernel, duration))
        rk4.append(evolve_eta_ode(d, prof, eta_rk4, duration))
        eta_kernel, eta_rk4 = float(kernel[-1].eta[-1]), float(rk4[-1].eta[-1])
    # omega is evaluated on each segment's own s; the fixed-step route is a
    # witness, so only its eta is joined; no segment outlives its stitch
    trajectory = _stitch(kernel, segments, ("s", "eta"))
    omega = _join([
        _record_omega(prof, part.s, d.freq_ratio_r) for part, (_, prof, _) in zip(kernel, segments)
    ])
    del kernel
    margins = {"solver": _cross_check(
        "solver", "eta routes disagree", trajectory.s,
        _join([part.eta for part in rk4]), trajectory.eta, SOLVER_AGREEMENT_RTOL,
    )}
    del rk4

    oracle = None
    if cfg.with_oracle:
        parts = []
        for _, prof, duration in segments:
            parts.append(evolve_populations(d, prof, pv, duration))
            pv = parts[-1].final
        oracle = replace(
            _stitch(parts, segments, _ORACLE_SAMPLES),
            **{name: sum(getattr(part, name) for part in parts) for name in _ORACLE_COUNTS},
        )
        eta_ref = trajectory.eta[_nearest_indices(trajectory.s, oracle.s)]
        margins["oracle"] = _cross_check(
            "oracle", "mean occupation disagrees with eta", oracle.s,
            oracle.mean_n + 1.0, eta_ref, ORACLE_AGREEMENT_RTOL,
        )

    record = TimeSeriesRecord.from_trajectory(trajectory, omega, d.theta0 * d.freq_ratio_r)
    i_min = int(np.argmin(record.T_ratio))
    summary = CycleSummary(
        min_t_ratio=float(record.T_ratio[i_min]),
        argmin_s=float(record.s[i_min]),
        recovery=recovery_time(record),
        final_eta=float(record.eta[-1]),
    )
    return CycleResult(record=record, summary=summary, margins=margins, oracle=oracle)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep: vary `axis` over `values` on top of `base`."""

    axis: str
    values: tuple
    base: CycleConfig

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("sweep needs at least one value")
        object.__setattr__(self, "values", vals)
        for v in vals:
            _override(self.base, **{self.axis: v})  # reject out-of-range values now


def sweep_range_values(vmin: float, vmax: float, count: int, spacing: str = "linear"):
    """Expand a (min, max, count, spacing) range into explicit sweep values."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > _MAX_SWEEP_VALUES:
        raise ValueError(
            f"a sweep of {count} values would exceed memory limits ({_MAX_SWEEP_VALUES} allowed)"
        )
    if not (math.isfinite(vmin) and math.isfinite(vmax) and vmin <= vmax):
        raise ValueError(f"need finite min <= max, got {vmin}..{vmax}")
    if spacing == "linear":
        return tuple(float(v) for v in np.linspace(vmin, vmax, count))
    if spacing == "log":
        if vmin <= 0.0:
            raise ValueError("log spacing needs a positive minimum")
        return tuple(float(v) for v in np.geomspace(vmin, vmax, count))
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


@dataclass(frozen=True)
class SweepRow:
    """Summary of one sweep point; `error` is set (and the numbers are None)
    when that run failed."""

    axis_value: float
    min_t_ratio: float | None = None
    argmin_s: float | None = None
    recovery_s: float | None = None
    recovered: bool | None = None
    error: str | None = None


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> list[SweepRow]:
    """Evaluate every sweep value, in order, in the calling thread.

    `max_workers` is an upper bound on the threads the sweep may use, and
    must be at least 1; one thread always meets it.  The runs are
    GIL-bound Python, so a thread pool made sweeps slower, not faster.

    A failed run is captured in its row instead of aborting the sweep.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")

    def one(value: float) -> SweepRow:
        try:
            result = run_cycle(_override(spec.base, **{spec.axis: value}))
        except Exception as exc:
            return SweepRow(axis_value=value, error=f"{type(exc).__name__}: {exc}")
        summ = result.summary
        return SweepRow(
            axis_value=value,
            min_t_ratio=summ.min_t_ratio,
            argmin_s=summ.argmin_s,
            recovery_s=summ.recovery.s,
            recovered=summ.recovery.recovered,
        )

    return [one(v) for v in spec.values]


def _fmt(value: float) -> str:
    return f"{value:.11e}"


_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _digit_rows(places: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**places - 1, one row each, most
    significant first, built by repeating "0123456789" (a division loop's
    first call alone raised the process's peak RSS by ~0.3 MB)."""
    n = 10**places
    return np.stack(
        [np.tile(np.repeat(_DIGITS, n // 10 ** (j + 1)), 10**j) for j in range(places)], axis=1
    )


def _words(chars: np.ndarray) -> np.ndarray:
    """A read-only flat table of the last-axis rows of a uint8 array of 4
    or 8 columns, each row's bytes packed in memory order into one word."""
    return _read_only(np.ascontiguousarray(chars).view(f"u{chars.shape[-1]}").reshape(-1))


_quad = _digit_rows(4)
_QUAD = _words(_quad)  # "DDDD" at i: a mantissa's 5th to 8th or 9th to 12th digits
_head = np.zeros((10_000, 8), dtype=np.uint8)
_head[:, [0, 2, 3, 4]] = _quad
_head[:, 1] = ord(".")
_HEAD = _words(_head)  # "D.DDD" and 3 zero bytes at i: a mantissa's first four digits
_exponent = np.arange(-99, 100)
_chars = np.zeros((2, 199, 8), dtype=np.uint8)
_chars[..., 3] = ord("e")
_chars[..., 4] = np.where(_exponent < 0, ord("-"), ord("+"))
_chars[..., 5:7] = _digit_rows(2)[np.abs(_exponent)]
_chars[..., 7] = np.frombuffer(b",\n", np.uint8)[:, None]
_TAIL = _words(_chars)  # 3 zero bytes and "e±tu," at e + 99, "e±tu\n" at 199 + e + 99
del _quad, _head, _exponent, _chars

# one 18-byte cell "D.DDDDDDDDDDDe±tu,": fields that overlap, stored in
# this order, "mid" and "low" each over the zero bytes the store before left
_CELL = np.dtype({
    "names": ["head", "mid", "tail", "low"],
    "formats": ["u8", "u4", "u8", "u4"],
    "offsets": [0, 5, 10, 9],
    "itemsize": 18,
})


def _format_cells(q: np.ndarray, d: np.ndarray, e: np.ndarray):
    """CSV bytes of a (rows, columns) block of finite values q, given with
    their `_decimal12` mantissas d and exponents e: each cell is
    `"%.11e" % x`, cells joined by "," and rows ended by "\n".

    Each cell of |x| is one 18-byte `_CELL` record, filled by four stores
    of overlapping words: "D.DDD" from `_HEAD` at d // 10**8 (8 bytes at
    offset 0), the next four digits from `_QUAD` (at 5), "e", the
    exponent's sign, tens and units digits and the separator from `_TAIL`
    (8 bytes at 10), and the last four digits from `_QUAD` (at 9).  The
    second and fourth stores overwrite the three zero bytes the store
    before each left.  A block whose negative cells are the first column
    of its first rows, as a record's negative s are, is written as those
    rows, each behind one "-", then the rest.  A block with any other
    sign pattern, or holding a three-digit exponent (|x| < 1e-99 or
    >= 1e100), which the tables do not cover, is printed value by value
    with "%.11e".  The block comes back as a tuple of bytes-like parts: a
    view of its cells, uncopied, behind the "-"-prefixed rows when it has
    them, or the one bytes object printed value by value.
    """
    negative = np.signbit(q)
    signed = np.count_nonzero(negative)
    if np.abs(e).max(initial=0) >= 100 or not (signed <= len(q) and negative[:signed, 0].all()):
        return ("".join(",".join(map(_fmt, row)) + "\n" for row in q.tolist()).encode(),)
    cells = np.empty(q.shape, dtype=_CELL)
    upper = d // 10_000  # a floor division by a constant is far cheaper than divmod
    low = d - upper * 10_000
    head = upper // 10_000
    tail = e + 99
    tail[:, -1] += 199
    cells["head"] = _HEAD.take(head)
    cells["mid"] = _QUAD.take(upper - head * 10_000)
    cells["tail"] = _TAIL.take(tail)
    cells["low"] = _QUAD.take(low)
    if not signed:
        return (memoryview(cells.reshape(-1).view(np.uint8)),)
    # the negatives are the first column of the first rows, as a record's
    # negative s are: each such row is "-" and its cells
    rows = np.empty((signed, 1 + cells[0].nbytes), dtype=np.uint8)
    rows[:, 0] = ord("-")
    rows[:, 1:] = cells[:signed].view(np.uint8).reshape(signed, -1)
    return memoryview(rows.reshape(-1)), memoryview(cells[signed:].reshape(-1).view(np.uint8))


def emit_csv(record: TimeSeriesRecord, path) -> None:
    """Write the record as CSV: fixed header, 12-significant-digit scientific
    notation, LF line endings, byte-deterministic for equal records.

    Cells are exactly Python's `"%.11e" % x`, built by `_format_cells`
    in blocks of `_BLOCK_ROWS` rows from the digits the record kept
    when it was quantized; no value's digits are worked out again, and a
    block's bytes-like parts are written as they are, with no copy.
    """
    q, d, e = record._quantized
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for lo in range(0, len(record), _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                fh.writelines(_format_cells(q[block], d[block], e[block]))
    except OSError as exc:
        raise OSError(f"CSV emission to {path} failed: {exc}") from exc


def read_csv_record(path) -> TimeSeriesRecord:
    """Parse a file written by emit_csv back into a TimeSeriesRecord: in one pass
    over its bytes, or, where that fails, row by row, naming the line at fault.
    A record the values cannot make is refused with the file's name."""
    try:
        with open(path, "rb") as fh:
            head, _, body = fh.read().replace(b"\r\n", b"\n").partition(b"\n")
        n = body.count(b"\n")
        cells = None
        if head == CSV_HEADER.encode() and body.translate(None, _NOT_SEPARATORS) == _ROW_ENDS * n:
            try:  # np.fromstring parses each cell as float() does, with no object per cell
                cells = np.fromstring(body.replace(b"\n", b","), sep=",").reshape(n, len(_COLUMNS))
            except ValueError:
                pass  # a bad cell: the row loop names it
        if cells is None:
            import csv
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != _COLUMNS:
                    raise ValueError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
                rows = []
                for lineno, row in enumerate(reader, start=2):
                    try:
                        if len(row) != len(_COLUMNS):
                            raise ValueError(f"expected {len(_COLUMNS)} columns")
                        rows.append([float(v) for v in row])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
            cells = np.array(rows, dtype=float).reshape(len(rows), len(_COLUMNS))
    except OSError as exc:
        raise OSError(f"CSV read from {path} failed: {exc}") from exc
    try:
        return TimeSeriesRecord(*cells.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def emit_sweep_csv(rows, path) -> None:
    """Write sweep rows as CSV (empty cells for a failed run's numbers)."""
    import csv

    def cell(v):
        return "" if v is None else (_fmt(v) if isinstance(v, float) else str(v).lower())

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            for row in rows:
                writer.writerow(
                    [
                        _fmt(row.axis_value),
                        cell(row.min_t_ratio),
                        cell(row.argmin_s),
                        cell(row.recovery_s),
                        cell(row.recovered),
                        row.error or "",
                    ]
                )
    except OSError as exc:
        raise OSError(f"CSV emission to {path} failed: {exc}") from exc


_CYCLE_PLOT = '''#!/usr/bin/env python3
"""Draw the cooling cycle stored next to this script.

Top panel: temperature ratio with the frequency schedule overlaid.
Bottom panel: mean excitation number.
"""
import csv
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CSV_NAME = {csv_name!r}

path = os.path.join(HERE, CSV_NAME)
if not os.path.exists(path):
    sys.exit(f"input CSV not found: {{path}} (rerun the cycle command first)")
with open(path, newline="") as fh:
    rows = list(csv.DictReader(fh))
if not rows:
    sys.exit(f"input CSV has no data rows: {{path}}")

s = [float(r["s"]) for r in rows]
omega = [float(r["omega_over_omega1"]) for r in rows]
mean_n = [float(r["mean_n"]) for r in rows]
t_ratio = [float(r["T_ratio"]) for r in rows]

# imported only here, so that a missing CSV is reported without matplotlib
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

fig, (top, bottom) = plt.subplots(2, 1, sharex=True, figsize=(7.0, 7.0))
top.plot(s, t_ratio, color="tab:blue", label="T(t)/T")
top.set_ylabel("T(t)/T", color="tab:blue")
top.axhline(1.0, color="gray", lw=0.6, ls=":")
twin = top.twinx()
twin.plot(s, omega, color="tab:red", label="omega/omega1")
twin.set_ylabel("omega(t)/omega1", color="tab:red")
top.set_title({title!r})
bottom.plot(s, mean_n, color="tab:green")
bottom.set_ylabel("mean excitation number")
bottom.set_xlabel("t / tau_open")
fig.tight_layout()
out = os.path.join(HERE, {png_name!r})
fig.savefig(out, dpi=160)
print(f"wrote {{out}}")
'''

_SWEEP_PLOT = '''#!/usr/bin/env python3
"""Draw the sweep summary stored next to this script: deepest cooling
per axis value (failed rows are skipped)."""
import csv
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CSV_NAME = {csv_name!r}

path = os.path.join(HERE, CSV_NAME)
if not os.path.exists(path):
    sys.exit(f"input CSV not found: {{path}} (rerun the sweep command first)")
with open(path, newline="") as fh:
    rows = [r for r in csv.DictReader(fh) if r["min_T_ratio"]]
if not rows:
    sys.exit(f"no successful sweep rows in {{path}}")

x = [float(r["axis_value"]) for r in rows]
y = [float(r["min_T_ratio"]) for r in rows]

# imported only here, so that a missing CSV is reported without matplotlib
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

fig, ax = plt.subplots(figsize=(6.0, 4.0))
ax.plot(x, y, marker="o", color="tab:blue")
if min(x) > 0 and max(x) / min(x) > 30:
    ax.set_xscale("log")
ax.set_xlabel({axis!r})
ax.set_ylabel("min T(t)/T")
ax.set_title({title!r})
fig.tight_layout()
out = os.path.join(HERE, {png_name!r})
fig.savefig(out, dpi=160)
print(f"wrote {{out}}")
'''


def emit_plot_script(source, path, axis=None) -> None:
    """Write a self-contained matplotlib script that plots the CSV emitted
    alongside it, `cycle.csv` or `sweep.csv`.  `source` is a
    TimeSeriesRecord (cycle panels) or a sequence of SweepRow (summary
    curve, with `axis` as its label); the script resolves the CSV
    relative to its own location and exits with a message naming it when
    it is missing, before it imports matplotlib.
    """
    if isinstance(source, TimeSeriesRecord):
        if len(source) == 0:
            raise ValueError("cannot emit a plot script for an empty record")
        title = "Cooling cycle"
        if source.s[0] < 0.0:
            title += " (pre-opening close and dwell included; extension mode)"
        text = _CYCLE_PLOT.format(csv_name="cycle.csv", title=title, png_name="cycle.png")
    else:
        if not list(source):
            raise ValueError("cannot emit a plot script for an empty sweep")
        axis = axis or "axis value"
        text = _SWEEP_PLOT.format(
            csv_name="sweep.csv", axis=axis, title=f"Sweep over {axis}", png_name="sweep.png"
        )
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"plot-script emission to {path} failed: {exc}") from exc


def serialize_config(cfg: CycleConfig) -> str:
    """Render a CycleConfig as INI text that parse_config inverts exactly;
    an output_dir it would read back differently (one with " #") is refused."""
    import configparser
    cp = configparser.ConfigParser(interpolation=None)

    def num(x) -> str:  # repr(float): a numpy scalar's repr is not a literal float() reads
        return repr(float(x))

    d = cfg.dimensionless
    cp["dimensionless"] = {
        key: num(getattr(d, key)) for key in ("theta0", "freq_ratio_r", "gamma_tau_g")
    }
    if cfg.profile != FrequencyProfile():
        prof = {"shape": cfg.profile.shape.value}
        if cfg.profile.shape is ProfileShape.CONSTANT:
            prof["level"] = num(cfg.profile.level)
        elif cfg.profile.shape is ProfileShape.PIECEWISE_LINEAR:
            points = cfg.profile.breakpoints
            prof["breakpoints"] = ", ".join(f"{num(s)}:{num(w)}" for s, w in points)
        else:
            prof["duration"] = num(cfg.profile.duration)
        cp["profile"] = prof
    run = {"init_mode": cfg.init_mode.name}
    if isinstance(cfg.init_mode, FiniteDwell):
        run["dwell"] = num(cfg.init_mode.dwell)
    run["horizon"] = num(cfg.horizon)
    run["with_oracle"] = "true" if cfg.with_oracle else "false"
    cp["run"] = run
    if cfg.output_dir is not None:
        cp["output"] = {"directory": cfg.output_dir}
    buf = io.StringIO()
    cp.write(buf)
    text = buf.getvalue()
    if cfg.output_dir is not None and parse_config(text).output_dir != cfg.output_dir:
        raise ValueError(f"output_dir {cfg.output_dir!r} would read back differently")
    return text


def _parse_breakpoints(text: str):
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sv, _, wv = chunk.partition(":")
        if not _:
            raise ValueError(f"breakpoint {chunk!r} is not in s:omega form")
        points.append((float(sv), float(wv)))
    return tuple(points)


def _profile_shape(text: str) -> ProfileShape:
    try:
        return ProfileShape(text)
    except ValueError:
        names = sorted(m.value for m in ProfileShape)
        raise ValueError(f"unknown profile shape {text!r}; expected one of {names}") from None


def _boolean(text: str) -> bool:
    import configparser
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _csv_only(text: str) -> str:
    if text != "csv":
        raise ValueError(f"unsupported output format {text!r}")
    return text


# every section and key a config file may hold, each with its parser
_CONFIG_KEYS = {
    "dimensionless": {"theta0": float, "freq_ratio_r": float, "gamma_tau_g": float},
    "profile": {
        "shape": _profile_shape,
        "duration": float,
        "level": float,
        "breakpoints": _parse_breakpoints,
    },
    "run": {"init_mode": str, "dwell": float, "horizon": float, "with_oracle": _boolean},
    "output": {"directory": str, "format": _csv_only},
}


def parse_config(text: str) -> CycleConfig:
    """Parse INI text into a CycleConfig; unknown sections or keys are errors.

    Values are read literally (no `%` interpolation).  Only the keys
    present are passed on, so every absent one takes its default.
    """
    import configparser
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ValueError("config must not use a DEFAULT section")
    given = {}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        stray = set(cp[section]) - set(_CONFIG_KEYS[section])
        if stray:
            raise ValueError(f"unknown key(s) in [{section}]: {sorted(stray)}")
        given[section] = {
            key: _CONFIG_KEYS[section][key](value) for key, value in cp[section].items()
        }
    if "dimensionless" not in given:
        raise ValueError("config needs a [dimensionless] section")
    missing = set(_CONFIG_KEYS["dimensionless"]) - set(given["dimensionless"])
    if missing:
        raise ValueError(f"[dimensionless] is missing {sorted(missing)}")
    profile = FrequencyProfile(**given["profile"]) if "profile" in given else None
    return _override(
        default_cycle_config(), **given["dimensionless"], **given.get("run", {}),
        profile=profile, output_dir=given.get("output", {}).get("directory"),
    )
