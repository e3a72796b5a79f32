"""Cycle orchestration and delivery.

Runs full cooling cycles with the exponential-kernel solver as the
authority and the fixed-step route (plus, optionally, the Fock-level
oracle) as cross-checks, sweeps one parameter axis across many runs,
and emits deterministic CSV files, plot scripts, and config files.

`run_cycle` only orchestrates.  It walks the segment plan (close, hold,
open; or the opening alone), calls every route on each segment with the
route's own default grid, joins each route's segments with `_stitch`,
and compares routes with `_cross_check`, the one place a disagreement
is measured and refused.  `TimeSeriesRecord.from_trajectory` derives
the observables from the kernel route's eta, once.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import SolverCrossCheckError
from .oracle import (
    PopulationTrajectory,
    evolve_populations,
    ladder_levels,
    populations_from_quenched,
)
from .profiles import FrequencyProfile, ProfileShape, omega_at
from .solver import (
    RECOVERY_TARGET,
    SAMPLES_PER_UNIT,
    STEP_SIZE,
    EtaTrajectory,
    RecoveryResult,
    _check_run,
    _substeps_per_interval,
    evolve_eta_closed_form,
    evolve_eta_ode,
    recovery_time,
)
from .thermo import GROUND_STATE_EPS, QuenchedState, ratio_from_eta, thermal_eta
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
_QUANTIZE_BLOCK = 1 << 14


def _decimal12(v: np.ndarray):
    """Integer mantissa d and exponent e of `"%.11e" % abs(x)` for each x in v,
    which prints as d's 12 digits with a point after the first, then e.

    Fast path (Clinger's exact case): with e = floor(log10|x|), |x|
    times or divided by the exact power 10**|11 - e| is one correctly
    rounded operation, off the exact product by at most 2**-14 below
    10**12, so its rint is the printed mantissa unless the fraction lies
    within 1e-3 of a half.  A mantissa rounded up to 10**12 becomes
    10**11 at the next exponent.  Elements off the fast path (a log10
    estimate one off, |11 - e| > 22, a near-half fraction) are printed
    with "%.11e" and their digits parsed back; zero and non-finite
    elements give d = e = 0.
    """
    usable = np.isfinite(v) & (v != 0.0)
    a = np.where(usable, np.abs(v), 1.0)  # a stand-in that gives zero and non-finite x e = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    shift = 11 - e
    p = _POW10[np.minimum(np.abs(shift), 22)]
    up = shift >= 0
    scaled = np.multiply(a, p, out=np.empty_like(a), where=up)
    np.divide(a, p, out=scaled, where=~up)
    d = np.rint(scaled)
    fast = (
        usable
        & (np.abs(shift) <= 22)
        & (scaled >= 1e11)
        & (scaled < 1e12)
        & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-3)
    )
    bump = fast & (d == 1e12)
    d = np.where(bump, 1e11, np.where(fast, d, 0.0)).astype(np.int64)
    e += bump
    d_flat, e_flat, a_flat = d.reshape(-1), e.reshape(-1), a.reshape(-1)
    for i in np.flatnonzero(usable & ~fast):
        text = "%.11e" % a_flat[i]
        d_flat[i] = int(text[0] + text[2:13])
        e_flat[i] = int(text[14:])
    return d, e


def _quantize(values) -> np.ndarray:
    """Round onto the 12-significant-digit grid the CSV emitter writes, so
    records roundtrip through their files bit-identically.

    Each value is rebuilt from `_decimal12`'s digits as d * 10**(e - 11),
    or d / 10**(11 - e), with both operands exact, so it equals
    float("%.11e" % x) bit for bit.  Only a value with |e - 11| > 22,
    where the power of ten is no longer exact, is parsed from that
    string instead; non-finite values pass through unchanged.  Values go
    `_QUANTIZE_BLOCK` at a time, which bounds the temporaries.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape)
    v_flat, out_flat = v.reshape(-1), out.reshape(-1)
    for lo in range(0, v_flat.size, _QUANTIZE_BLOCK):
        x = v_flat[lo:lo + _QUANTIZE_BLOCK]
        d, e = _decimal12(x)
        k = e - 11
        p = _POW10[np.minimum(np.abs(k), 22)]
        q = np.where(k >= 0, d * p, d / p)
        q = np.where(np.signbit(x), -q, q)
        for i in np.flatnonzero(np.abs(k) > 22):
            q[i] = float(f"{x[i]:.11e}")
        out_flat[lo:lo + _QUANTIZE_BLOCK] = np.where(np.isfinite(x), q, x)
    return out


@dataclass(eq=False)
class TimeSeriesRecord:
    """Sampled cycle output, one row per sample, stored pre-rounded to the
    12 significant digits that the CSV emitter writes."""

    s: np.ndarray
    omega_over_omega1: np.ndarray
    eta: np.ndarray
    mean_n: np.ndarray
    T_ratio: np.ndarray

    def __post_init__(self):
        cols = [
            np.asarray(c, dtype=float)
            for c in (self.s, self.omega_over_omega1, self.eta, self.mean_n, self.T_ratio)
        ]
        n = cols[0].size
        if any(c.size != n for c in cols):
            raise ValueError("record columns must have equal length")
        quantized = _quantize(np.stack([c.reshape(n) for c in cols]))
        self.s, self.omega_over_omega1, self.eta, self.mean_n, self.T_ratio = quantized
        if not np.all(np.isfinite(quantized)):
            raise ValueError("record values must all be finite")
        if n >= 2 and not np.all(np.diff(self.s) > 0.0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.s.size)

    @classmethod
    def from_trajectory(cls, traj: EtaTrajectory, omega_over_omega1, theta0_r: float):
        """The record of `traj` under the schedule `omega_over_omega1` at
        theta0 * r = `theta0_r`: the one place mean_n and T_ratio are derived."""
        ratio = ratio_from_eta(traj.eta, theta0_r * omega_over_omega1)
        return cls(traj.s, omega_over_omega1, traj.eta, traj.eta - 1.0, ratio)


@dataclass(frozen=True)
class CycleSummary:
    min_t_ratio: float
    argmin_s: float
    recovery: RecoveryResult
    final_eta: float


@dataclass(eq=False)
class CycleResult:
    """Everything a cycle run produced: the rounded record, its summary,
    and (when requested) the stitched Fock-level oracle trajectory."""

    record: TimeSeriesRecord
    summary: CycleSummary
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


_ORACLE_SAMPLES = ("s", "mean_n", "tail_bound", "mass", "geometric_residual")


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


def _cross_check(route, disagreement, s, value, reference, rtol) -> None:
    """Raise SolverCrossCheckError at the sample where `value` is furthest
    from `reference`, relative to it, if that is more than `rtol`."""
    rel = np.abs(value - reference) / reference
    worst = int(np.argmax(rel))
    if rel[worst] > rtol:
        raise SolverCrossCheckError(
            f"{route} cross-check failed: {disagreement} by {rel[worst]:.3e} relative "
            f"at s = {s[worst]:.6g} (allowed {rtol:g})"
        )


def _nearest_indices(grid: np.ndarray, query: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(grid, query), 1, grid.size - 1)
    prefer_left = (query - grid[idx - 1]) <= (grid[idx] - query)
    return idx - prefer_left.astype(int)


def run_cycle(cfg: CycleConfig) -> CycleResult:
    """Run one full cycle with both eta solvers and return the consensus.

    The exponential-kernel route provides the reported values; the
    fixed-step route must agree within SOLVER_AGREEMENT_RTOL on eta at
    every sample or the run fails with "solver cross-check failed".
    With `cfg.with_oracle`, the Fock-level populations are evolved too
    and their mean occupation + 1 must match eta within
    ORACLE_AGREEMENT_RTOL at the oracle's (coarser) samples.  Every
    route runs on its own default grid.
    """
    d = cfg.dimensionless
    eta0, segments = _plan_segments(cfg)
    # `ratio_from_eta` would refuse this start at the record's first sample
    if not eta0 > 1.0 + GROUND_STATE_EPS:
        raise ValueError(
            f"eta0 must exceed 1 + {GROUND_STATE_EPS:g} (the ground-state limit), got {eta0}"
        )
    # the routes' grids and the oracle's ladder pass their size checks before any route runs
    for _, _, duration in segments:
        n_intervals = _check_run(duration, SAMPLES_PER_UNIT)
        _substeps_per_interval(duration, n_intervals, STEP_SIZE)
    if cfg.with_oracle:
        pv = populations_from_quenched(QuenchedState(eta=eta0), ladder_levels(d, segments))

    kernel, rk4 = [], []
    eta_kernel = eta_rk4 = eta0
    for _, prof, duration in segments:
        kernel.append(evolve_eta_closed_form(d, prof, eta_kernel, duration))
        rk4.append(evolve_eta_ode(d, prof, eta_rk4, duration))
        eta_kernel, eta_rk4 = float(kernel[-1].eta[-1]), float(rk4[-1].eta[-1])
    # omega is evaluated on each segment's own s; the fixed-step route is a
    # witness, so only its eta is stitched; no segment outlives its stitch
    trajectory = _stitch(kernel, segments, ("s", "eta"))
    omega = _join(
        [omega_at(prof, part.s, d.freq_ratio_r) for part, (_, prof, _) in zip(kernel, segments)]
    )
    del kernel
    _cross_check(
        "solver", "eta routes disagree", trajectory.s,
        _stitch(rk4, segments, ("eta",)).eta, trajectory.eta, SOLVER_AGREEMENT_RTOL,
    )
    del rk4

    oracle = None
    if cfg.with_oracle:
        parts = []
        for _, prof, duration in segments:
            parts.append(evolve_populations(d, prof, pv, duration))
            pv = parts[-1].final
        oracle = _stitch(parts, segments, _ORACLE_SAMPLES)
        eta_ref = trajectory.eta[_nearest_indices(trajectory.s, oracle.s)]
        _cross_check(
            "oracle", "mean occupation disagrees with eta", oracle.s,
            oracle.mean_n + 1.0, eta_ref, ORACLE_AGREEMENT_RTOL,
        )

    record = TimeSeriesRecord.from_trajectory(trajectory, omega, d.theta0 * d.freq_ratio_r)
    i_min = int(np.argmin(record.T_ratio))
    summary = CycleSummary(
        min_t_ratio=float(record.T_ratio[i_min]),
        argmin_s=float(record.s[i_min]),
        recovery=recovery_time(record, RECOVERY_TARGET),
        final_eta=float(record.eta[-1]),
    )
    return CycleResult(record=record, summary=summary, oracle=oracle)


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> list[SweepRow]:
    """Evaluate every sweep value, in order, in the calling thread or across
    at most `max_workers` threads, and no more than there are values or
    usable CPUs; the runs are GIL-bound, so threads do not speed them up.

    Rows are pure functions of their own config (no shared state), so the
    result is identical for any worker count.  A failed run is captured in
    its row instead of aborting the sweep.
    """

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

    workers = min(max_workers, len(spec.values), _usable_cpus())
    if workers == 1:
        return [one(v) for v in spec.values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, spec.values))


def _fmt(value: float) -> str:
    return f"{value:.11e}"


_CSV_BLOCK_ROWS = 2048  # rows formatted per block; bounds the writer's memory


_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _digit_rows(places: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**places - 1, one row each, most
    significant first, built by repeating "0123456789" (a division loop's
    first call alone raised the process's peak RSS by ~0.3 MB)."""
    n = 10**places
    return np.stack(
        [np.tile(np.repeat(_DIGITS, n // 10 ** (j + 1)), 10**j) for j in range(places)], axis=1
    )


def _byte_strings(chars: np.ndarray) -> np.ndarray:
    """A read-only table of the rows of a uint8 matrix, as byte strings."""
    table = chars.view(f"S{chars.shape[1]}").reshape(-1)
    table.flags.writeable = False
    return table


def _exponent_chars() -> np.ndarray:
    """"e±htu" for each e in [-999, 999], with NUL for the h of |e| < 100."""
    magnitude = _digit_rows(3)
    chars = np.empty((1999, 5), dtype=np.uint8)
    chars[:, 0] = ord("e")
    chars[:999, 1] = ord("-")
    chars[999:, 1] = ord("+")
    chars[:, 2:] = np.concatenate((magnitude[:0:-1], magnitude))  # 999 .. 1, then 0 .. 999
    chars[chars[:, 2] == ord("0"), 2] = 0
    return chars


_quad = _digit_rows(4)
_QUAD = _byte_strings(_quad)  # "dddd" at i: a mantissa's middle or low four digits
_HEAD = _byte_strings(np.insert(_quad, 1, ord("."), axis=1))  # "d.ddd" at i: its high four
_EXPONENT = _byte_strings(_exponent_chars())  # at e + 999
del _quad
# one cell of `"%.11e" % x` and its separator, 20 bytes; NUL marks a byte
# the cell does not print
_CELL = np.dtype(
    [("sign", "S1"), ("head", "S5"), ("mid", "S4"), ("low", "S4"), ("exp", "S5"), ("sep", "S1")]
)


def _format_rows(block: np.ndarray) -> bytes:
    """CSV bytes of a (rows, columns) block of finite values: each cell is
    `"%.11e" % x`, cells joined by "," and rows ended by "\n".

    Each cell is one `_CELL` record filled from `_decimal12`'s mantissa d
    and exponent e by four table lookups: "d.ddd" from `_HEAD` at
    d // 10**8, the middle and low four digits from `_QUAD`, and the
    exponent from `_EXPONENT` at e + 999.  The sign byte of a value
    without its sign bit and the hundreds digit of a two-digit exponent
    are NUL, and one `translate` of the block's bytes drops them.
    """
    d, e = _decimal12(block)
    cells = np.empty(block.shape, dtype=_CELL)
    cells["sign"].view(np.uint8)[...] = np.signbit(block) * np.uint8(ord("-"))
    head = d // 100_000_000  # a floor division by a constant is far cheaper than divmod
    upper = d // 10_000
    cells["head"] = np.take(_HEAD, head)
    cells["mid"] = np.take(_QUAD, upper - head * 10_000)
    cells["low"] = np.take(_QUAD, d - upper * 10_000)
    cells["exp"] = np.take(_EXPONENT, e + 999)
    cells["sep"] = b","
    cells["sep"][:, -1] = b"\n"
    return cells.tobytes().translate(None, b"\0")


def emit_csv(record: TimeSeriesRecord, path) -> None:
    """Write the record as CSV: fixed header, 12-significant-digit scientific
    notation, LF line endings, byte-deterministic for equal records.

    Cells are exactly Python's `"%.11e" % x`, built by `_format_rows` in
    blocks of `_CSV_BLOCK_ROWS` rows from digit tables; only the values
    `_decimal12` sends off its fast path are printed one at a time.
    """
    cols = (record.s, record.omega_over_omega1, record.eta, record.mean_n, record.T_ratio)
    if not all(np.all(np.isfinite(c)) for c in cols):
        raise ValueError("record values must all be finite")
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for lo in range(0, len(record), _CSV_BLOCK_ROWS):
                block = np.stack([c[lo:lo + _CSV_BLOCK_ROWS] for c in cols], axis=1)
                fh.write(_format_rows(block))
    except OSError as exc:
        raise OSError(f"CSV emission to {path} failed: {exc}") from exc


def read_csv_record(path) -> TimeSeriesRecord:
    """Parse a file written by emit_csv back into a TimeSeriesRecord."""
    names = CSV_HEADER.split(",")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != names:
                raise ValueError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                try:
                    if len(row) != len(names):
                        raise ValueError(f"expected {len(names)} columns")
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise OSError(f"CSV read from {path} failed: {exc}") from exc
    return TimeSeriesRecord(*np.array(rows, dtype=float).reshape(len(rows), len(names)).T)


def emit_sweep_csv(rows, path) -> None:
    """Write sweep rows as CSV (empty cells for a failed run's numbers)."""

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
    cp = configparser.ConfigParser(interpolation=None)
    d = cfg.dimensionless
    cp["dimensionless"] = {
        "theta0": repr(d.theta0),
        "freq_ratio_r": repr(d.freq_ratio_r),
        "gamma_tau_g": repr(d.gamma_tau_g),
    }
    if cfg.profile != FrequencyProfile():
        prof = {"shape": cfg.profile.shape.value, "duration": repr(cfg.profile.duration)}
        if cfg.profile.shape is ProfileShape.CONSTANT:
            prof["level"] = repr(cfg.profile.level)
        if cfg.profile.shape is ProfileShape.PIECEWISE_LINEAR:
            prof["breakpoints"] = ", ".join(
                f"{repr(sv)}:{repr(wv)}" for sv, wv in cfg.profile.breakpoints
            )
        cp["profile"] = prof
    run = {"init_mode": cfg.init_mode.name}
    if isinstance(cfg.init_mode, FiniteDwell):
        run["dwell"] = repr(cfg.init_mode.dwell)
    run["horizon"] = repr(cfg.horizon)
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
