"""Cycle orchestration and delivery.

Runs full cooling cycles with the exponential-kernel solver as the
authority and the fixed-step route (plus, optionally, the Fock-level
oracle) as cross-checks, sweeps one parameter axis across many runs,
and emits deterministic CSV files, plot scripts, and config files.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverCrossCheckError
from .oracle import (
    PopulationTrajectory,
    evolve_populations,
    populations_from_quenched,
    truncation_levels,
)
from .profiles import FrequencyProfile, ProfileShape
from .solver import (
    EtaTrajectory,
    RecoveryResult,
    evolve_eta_closed_form,
    evolve_eta_ode,
    recovery_time,
)
from .thermo import QuenchedState, nu_of
from .units import DimensionlessParams

RECOVERY_TARGET = 0.997
SOLVER_AGREEMENT_RTOL = 1e-6   # fixed-step route must match the kernel route this well
ORACLE_AGREEMENT_RTOL = 1e-3   # Fock-level mean occupation + 1 vs eta

CSV_HEADER = "s,omega_over_omega1,eta,mean_n,T_ratio"
SWEEP_CSV_HEADER = "axis_value,min_T_ratio,argmin_s,recovery_s,recovered,error"

# anchors for the pinned default cycle: (expected value, absolute tolerance)
REFERENCE_MIN_T_RATIO = (0.65, 0.05)
REFERENCE_RECOVERY_S = (6.0, 1.0)

SWEEP_AXES = ("theta0", "freq_ratio_r", "gamma_tau_g")


@dataclass(frozen=True)
class ThermalClosed:
    """Start the run already thermalized at the closed (stiff) frequency."""


@dataclass(frozen=True)
class FiniteDwell:
    """Extension mode: start thermal at the open frequency, close over one
    time unit with the reversed sine ramp, hold closed for `dwell` units,
    then open.  The pre-opening phases appear at negative s in the output.
    """

    dwell: float

    def __post_init__(self):
        if not (math.isfinite(self.dwell) and self.dwell >= 0.0):
            raise ValueError(f"dwell must be finite and >= 0, got {self.dwell}")


@dataclass(frozen=True)
class CycleConfig:
    """One full cooling-cycle run; `profile=None` means the default sine opening."""

    dimensionless: DimensionlessParams
    profile: FrequencyProfile | None = None
    init_mode: ThermalClosed | FiniteDwell = field(default_factory=ThermalClosed)
    horizon: float = 10.0
    with_oracle: bool = False
    output_dir: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon >= 1.0):
            raise ValueError(f"horizon must cover at least the opening, got {self.horizon}")
        if self.profile is not None and self.profile.freq_ratio_r != self.dimensionless.freq_ratio_r:
            raise ValueError(
                f"profile frequency ratio {self.profile.freq_ratio_r} does not match "
                f"the dimensionless parameters ({self.dimensionless.freq_ratio_r})"
            )
        if not isinstance(self.init_mode, (ThermalClosed, FiniteDwell)):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.output_format != "csv":
            raise ValueError(f"unsupported output format {self.output_format!r}")


def default_cycle_config() -> CycleConfig:
    """The pinned reference cycle (theta0=0.032, r=2, g=1, sine opening)."""
    return CycleConfig(
        dimensionless=DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
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
    def from_trajectory(cls, traj: EtaTrajectory) -> "TimeSeriesRecord":
        return cls(
            s=traj.s,
            omega_over_omega1=traj.omega_over_omega1,
            eta=traj.eta,
            mean_n=traj.mean_n,
            T_ratio=traj.T_ratio,
        )


@dataclass(frozen=True)
class CycleSummary:
    min_t_ratio: float
    argmin_s: float
    recovery: RecoveryResult
    final_eta: float


@dataclass(eq=False)
class CycleResult:
    """Everything a cycle run produced: the rounded record, its summary,
    the full-precision authoritative trajectory, and (when requested)
    the stitched Fock-level oracle trajectory."""

    record: TimeSeriesRecord
    summary: CycleSummary
    trajectory: EtaTrajectory
    oracle: PopulationTrajectory | None = None


def _plan_segments(cfg: CycleConfig):
    """Initial eta plus (global start, profile, duration) for each phase."""
    d = cfg.dimensionless
    opening = cfg.profile or FrequencyProfile(freq_ratio_r=d.freq_ratio_r)
    if isinstance(cfg.init_mode, ThermalClosed):
        eta0 = nu_of(d.theta0 * d.freq_ratio_r) + 1.0
        return eta0, [(0.0, opening, cfg.horizon)]
    dwell = cfg.init_mode.dwell
    eta0 = nu_of(d.theta0) + 1.0  # thermal at the open frequency
    segments = [
        (-1.0 - dwell, FrequencyProfile(d.freq_ratio_r, ProfileShape.REVERSED_SINE_CLOSING), 1.0)
    ]
    if dwell > 0.0:
        segments.append(
            (-dwell, FrequencyProfile(d.freq_ratio_r, ProfileShape.CONSTANT, level=1.0), dwell)
        )
    segments.append((0.0, opening, cfg.horizon))
    return eta0, segments


def _stitch(parts):
    """Concatenate per-segment sample arrays, dropping each later segment's
    duplicated first sample (it equals the previous segment's last)."""
    keep = [parts[0]] + [p[1:] for p in parts[1:]]
    return np.concatenate(keep)


def _nearest_indices(grid: np.ndarray, query: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(grid, query), 1, grid.size - 1)
    prefer_left = (query - grid[idx - 1]) <= (grid[idx] - query)
    return idx - prefer_left.astype(int)


def run_cycle(
    cfg: CycleConfig,
    *,
    samples_per_unit: int = 2000,
    ode_step: float = 1e-4,
    oracle_samples_per_unit: int = 100,
) -> CycleResult:
    """Run one full cycle with both eta solvers and return the consensus.

    The exponential-kernel route provides the reported values; the
    fixed-step route must agree within SOLVER_AGREEMENT_RTOL on eta at
    every sample or the run fails with "solver cross-check failed".
    With `cfg.with_oracle`, the Fock-level populations are evolved too
    and their mean occupation + 1 must match eta within
    ORACLE_AGREEMENT_RTOL at the oracle's (coarser) samples.
    """
    d = cfg.dimensionless
    eta0, segments = _plan_segments(cfg)

    s_parts, w_parts, eta_parts, ratio_parts, ode_parts = [], [], [], [], []
    eta_cf = eta_ode = eta0
    for start, prof, duration in segments:
        cf = evolve_eta_closed_form(d, prof, eta_cf, duration, samples_per_unit=samples_per_unit)
        ode = evolve_eta_ode(
            d, prof, eta_ode, duration,
            step_size=ode_step, samples_per_unit=samples_per_unit,
        )
        eta_cf = float(cf.eta[-1])
        eta_ode = float(ode.eta[-1])
        s_parts.append(start + cf.s)
        w_parts.append(cf.omega_over_omega1)
        eta_parts.append(cf.eta)
        ratio_parts.append(cf.T_ratio)
        ode_parts.append(ode.eta)

    s = _stitch(s_parts)
    eta = _stitch(eta_parts)
    eta_other = _stitch(ode_parts)
    rel = np.abs(eta_other - eta) / eta
    worst = int(np.argmax(rel))
    if rel[worst] > SOLVER_AGREEMENT_RTOL:
        raise SolverCrossCheckError(
            f"solver cross-check failed: eta routes disagree by {rel[worst]:.3e} relative "
            f"at s = {s[worst]:.6g} (allowed {SOLVER_AGREEMENT_RTOL:g})"
        )

    trajectory = EtaTrajectory(
        s=s,
        omega_over_omega1=_stitch(w_parts),
        eta=eta,
        mean_n=eta - 1.0,
        T_ratio=_stitch(ratio_parts),
        method="closed-form",
        tolerance=cf.tolerance,
    )

    oracle_traj = None
    if cfg.with_oracle:
        oracle_traj = _run_oracle(d, segments, eta0, oracle_samples_per_unit, trajectory)

    record = TimeSeriesRecord.from_trajectory(trajectory)
    i_min = int(np.argmin(record.T_ratio))
    summary = CycleSummary(
        min_t_ratio=float(record.T_ratio[i_min]),
        argmin_s=float(record.s[i_min]),
        recovery=recovery_time(record, RECOVERY_TARGET),
        final_eta=float(record.eta[-1]),
    )
    return CycleResult(record=record, summary=summary, trajectory=trajectory, oracle=oracle_traj)


def _run_oracle(d, segments, eta0, samples_per_unit, trajectory) -> PopulationTrajectory:
    # deepest occupation happens at the smallest omega over the schedule;
    # +20 levels keep the one-way tail accumulator clear of its threshold
    # in the small-occupation regime where ceil(40*nu) alone sits close
    w_min = float(trajectory.omega_over_omega1.min())
    n_max = truncation_levels(float(nu_of(d.theta0 * d.freq_ratio_r * w_min))) + 20
    pv = populations_from_quenched(QuenchedState(eta=eta0), n_max)
    parts = []
    for start, prof, duration in segments:
        seg = evolve_populations(
            d, prof, pv, duration, samples_per_unit=samples_per_unit
        )
        pv = seg.final
        seg.s = start + seg.s
        parts.append(seg)
    per_sample = ("s", "mean_n", "tail_bound", "mass", "geometric_residual")
    stitched = PopulationTrajectory(
        **{name: _stitch([getattr(seg, name) for seg in parts]) for name in per_sample},
        populations=parts[-1].populations,
        method="bdf",
    )
    idx = _nearest_indices(trajectory.s, stitched.s)
    eta_ref = trajectory.eta[idx]
    rel = np.abs(stitched.mean_n + 1.0 - eta_ref) / eta_ref
    worst = int(np.argmax(rel))
    if rel[worst] > ORACLE_AGREEMENT_RTOL:
        raise SolverCrossCheckError(
            f"oracle cross-check failed: mean occupation disagrees with eta by "
            f"{rel[worst]:.3e} relative at s = {stitched.s[worst]:.6g} "
            f"(allowed {ORACLE_AGREEMENT_RTOL:g})"
        )
    return stitched


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
            _config_for_value(self.base, self.axis, v)  # reject out-of-range values now


def sweep_range_values(vmin: float, vmax: float, count: int, spacing: str = "linear"):
    """Expand a (min, max, count, spacing) range into explicit sweep values."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not (math.isfinite(vmin) and math.isfinite(vmax) and vmin <= vmax):
        raise ValueError(f"need finite min <= max, got {vmin}..{vmax}")
    if spacing == "linear":
        return tuple(float(v) for v in np.linspace(vmin, vmax, count))
    if spacing == "log":
        if vmin <= 0.0:
            raise ValueError("log spacing needs a positive minimum")
        return tuple(float(v) for v in np.geomspace(vmin, vmax, count))
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def _config_for_value(base: CycleConfig, axis: str, value: float) -> CycleConfig:
    dims = replace(base.dimensionless, **{axis: value})
    prof = base.profile
    if prof is not None and axis == "freq_ratio_r":
        prof = replace(prof, freq_ratio_r=value)
    return replace(base, dimensionless=dims, profile=prof)


@dataclass(frozen=True)
class SweepRow:
    """Summary of one sweep point; `error` is set (and the numbers are None)
    when that run failed."""

    axis_value: float
    min_t_ratio: float | None
    argmin_s: float | None
    recovery_s: float | None
    recovered: bool | None
    error: str | None = None


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> list[SweepRow]:
    """Evaluate every sweep value, in order, optionally across worker threads.

    Rows are pure functions of their own config (no shared state), so the
    result is identical for any worker count.  A failed run is captured in
    its row instead of aborting the sweep.
    """

    def one(value: float) -> SweepRow:
        try:
            result = run_cycle(_config_for_value(spec.base, spec.axis, value))
        except Exception as exc:
            return SweepRow(
                axis_value=value,
                min_t_ratio=None,
                argmin_s=None,
                recovery_s=None,
                recovered=None,
                error=f"{type(exc).__name__}: {exc}",
            )
        summ = result.summary
        return SweepRow(
            axis_value=value,
            min_t_ratio=summ.min_t_ratio,
            argmin_s=summ.argmin_s,
            recovery_s=summ.recovery.s,
            recovered=summ.recovery.recovered,
        )

    if max_workers == 1:
        return [one(v) for v in spec.values]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(one, spec.values))


def _fmt(value: float) -> str:
    return f"{value:.11e}"


_CSV_BLOCK_ROWS = 2048  # rows formatted per block; bounds the writer's memory
_CELL = 20  # "-", 12 digits and the point, "e", exponent sign, 3 exponent digits, separator
_DIGIT_CELLS = (13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1)  # mantissa digits, last first


def _format_rows(block: np.ndarray) -> bytes:
    """CSV bytes of a (rows, columns) block of finite values: each cell is
    `"%.11e" % x`, cells joined by "," and rows ended by "\n".

    Every cell is laid out at full width in a uint8 matrix, one digit
    position at a time from `_decimal12`'s mantissa and exponent; a mask
    then drops the "-" of non-negative values and the hundreds digit of
    two-digit exponents.
    """
    rows, columns = block.shape
    d, e = _decimal12(block)
    cells = np.empty((rows, columns, _CELL), dtype=np.uint8)
    cells[..., 0] = ord("-")
    for j in _DIGIT_CELLS:
        q = d // 10  # a floor division by a constant is far cheaper than %
        cells[..., j] = d - 10 * q + ord("0")
        d = q
    cells[..., 2] = ord(".")
    cells[..., 14] = ord("e")
    cells[..., 15] = np.where(e < 0, ord("-"), ord("+"))
    abs_e = np.abs(e)
    for j in (18, 17):
        q = abs_e // 10
        cells[..., j] = abs_e - 10 * q + ord("0")
        abs_e = q
    cells[..., 16] = abs_e + ord("0")
    cells[..., 19] = ord(",")
    cells[:, -1, 19] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[..., 0] = np.signbit(block)
    keep[..., 16] = abs_e > 0  # abs_e now holds the hundreds digit
    return cells[keep].tobytes()


def emit_csv(record: TimeSeriesRecord, path) -> None:
    """Write the record as CSV: fixed header, 12-significant-digit scientific
    notation, LF line endings, byte-deterministic for equal records.

    Cells are exactly Python's `"%.11e" % x`, built by `_format_rows` in
    blocks of `_CSV_BLOCK_ROWS` rows; only the values `_decimal12` sends
    off its fast path are printed one at a time.
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
                if len(row) != len(names):
                    raise ValueError(f"{path}:{lineno}: expected {len(names)} columns")
                rows.append([float(v) for v in row])
    except OSError as exc:
        raise OSError(f"CSV read from {path} failed: {exc}") from exc
    cols = np.array(rows, dtype=float).reshape(len(rows), len(names)).T
    return TimeSeriesRecord(
        s=cols[0], omega_over_omega1=cols[1], eta=cols[2], mean_n=cols[3], T_ratio=cols[4]
    )


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


def emit_plot_script(source, path, csv_name=None, axis=None) -> None:
    """Write a self-contained matplotlib script that plots the CSV emitted
    alongside it.  `source` is a TimeSeriesRecord (cycle panels) or a
    sequence of SweepRow (summary curve); the script resolves the CSV
    relative to its own location and exits with a message naming it when
    it is missing, before it imports matplotlib.
    """
    if isinstance(source, TimeSeriesRecord):
        if len(source) == 0:
            raise ValueError("cannot emit a plot script for an empty record")
        title = "Cooling cycle"
        if source.s[0] < 0.0:
            title += " (pre-opening close and dwell included; extension mode)"
        text = _CYCLE_PLOT.format(
            csv_name=csv_name or "cycle.csv", title=title, png_name="cycle.png"
        )
    else:
        rows = list(source)
        if not rows:
            raise ValueError("cannot emit a plot script for an empty sweep")
        text = _SWEEP_PLOT.format(
            csv_name=csv_name or "sweep.csv",
            axis=axis or "axis value",
            title=f"Sweep over {axis or 'axis value'}",
            png_name="sweep.png",
        )
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"plot-script emission to {path} failed: {exc}") from exc


_INIT_MODE_NAMES = {"thermal-closed": ThermalClosed, "finite-dwell": FiniteDwell}

_CONFIG_KEYS = {
    "dimensionless": {"theta0", "freq_ratio_r", "gamma_tau_g"},
    "profile": {"shape", "duration", "level", "breakpoints"},
    "run": {"init_mode", "dwell", "horizon", "with_oracle"},
    "output": {"directory", "format"},
}


def serialize_config(cfg: CycleConfig) -> str:
    """Render a CycleConfig as INI text; parse_config inverts this exactly."""
    cp = configparser.ConfigParser()
    d = cfg.dimensionless
    cp["dimensionless"] = {
        "theta0": repr(d.theta0),
        "freq_ratio_r": repr(d.freq_ratio_r),
        "gamma_tau_g": repr(d.gamma_tau_g),
    }
    if cfg.profile is not None:
        prof = {"shape": cfg.profile.shape.value, "duration": repr(cfg.profile.duration)}
        if cfg.profile.shape is ProfileShape.CONSTANT:
            prof["level"] = repr(cfg.profile.level)
        if cfg.profile.shape is ProfileShape.PIECEWISE_LINEAR:
            prof["breakpoints"] = ", ".join(
                f"{repr(sv)}:{repr(wv)}" for sv, wv in cfg.profile.breakpoints
            )
        cp["profile"] = prof
    run = {}
    if isinstance(cfg.init_mode, FiniteDwell):
        run["init_mode"] = "finite-dwell"
        run["dwell"] = repr(cfg.init_mode.dwell)
    else:
        run["init_mode"] = "thermal-closed"
    run["horizon"] = repr(cfg.horizon)
    run["with_oracle"] = "true" if cfg.with_oracle else "false"
    cp["run"] = run
    out = {}
    if cfg.output_dir is not None:
        out["directory"] = cfg.output_dir
    out["format"] = cfg.output_format
    cp["output"] = out
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


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


def parse_config(text: str) -> CycleConfig:
    """Parse INI text into a CycleConfig; unknown sections or keys are errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ValueError("config must not use a DEFAULT section")
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        stray = set(cp[section]) - _CONFIG_KEYS[section]
        if stray:
            raise ValueError(f"unknown key(s) in [{section}]: {sorted(stray)}")
    if not cp.has_section("dimensionless"):
        raise ValueError("config needs a [dimensionless] section")
    dsec = cp["dimensionless"]
    missing = _CONFIG_KEYS["dimensionless"] - set(dsec)
    if missing:
        raise ValueError(f"[dimensionless] is missing {sorted(missing)}")
    dims = DimensionlessParams(
        theta0=dsec.getfloat("theta0"),
        freq_ratio_r=dsec.getfloat("freq_ratio_r"),
        gamma_tau_g=dsec.getfloat("gamma_tau_g"),
    )
    profile = None
    if cp.has_section("profile"):
        psec = cp["profile"]
        shape_name = psec.get("shape", ProfileShape.SINE_OPENING.value)
        try:
            shape = ProfileShape(shape_name)
        except ValueError:
            names = sorted(m.value for m in ProfileShape)
            raise ValueError(f"unknown profile shape {shape_name!r}; expected one of {names}")
        kwargs = {"duration": psec.getfloat("duration", 1.0)}
        if "level" in psec:
            kwargs["level"] = psec.getfloat("level")
        if "breakpoints" in psec:
            kwargs["breakpoints"] = _parse_breakpoints(psec["breakpoints"])
        profile = FrequencyProfile(dims.freq_ratio_r, shape, **kwargs)
    init_mode = ThermalClosed()
    horizon = 10.0
    with_oracle = False
    if cp.has_section("run"):
        rsec = cp["run"]
        mode_name = rsec.get("init_mode", "thermal-closed")
        if mode_name not in _INIT_MODE_NAMES:
            raise ValueError(
                f"unknown init_mode {mode_name!r}; expected one of {sorted(_INIT_MODE_NAMES)}"
            )
        if mode_name == "finite-dwell":
            init_mode = FiniteDwell(dwell=rsec.getfloat("dwell", 0.0))
        elif "dwell" in rsec:
            raise ValueError("dwell is only meaningful with init_mode = finite-dwell")
        horizon = rsec.getfloat("horizon", 10.0)
        with_oracle = rsec.getboolean("with_oracle", False)
    output_dir = None
    output_format = "csv"
    if cp.has_section("output"):
        osec = cp["output"]
        output_dir = osec.get("directory", None)
        output_format = osec.get("format", "csv")
    return CycleConfig(
        dimensionless=dims,
        profile=profile,
        init_mode=init_mode,
        horizon=horizon,
        with_oracle=with_oracle,
        output_dir=output_dir,
        output_format=output_format,
    )
