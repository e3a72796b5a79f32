"""Cycle orchestration.

Runs full cooling cycles with the exponential-kernel solver as the
authority and the fixed-step route (plus, optionally, the Fock-level
oracle) as cross-checks, and sweeps one parameter axis across many runs.

`run_cycle` only orchestrates.  It walks the segment plan (close, hold,
open; or the opening alone), calls every route on each segment on the
grid its module sets, joins each route's segments with `_stitch`,
and compares routes with `_cross_check`, the one place a disagreement
is measured and refused.  `TimeSeriesRecord.from_trajectory` (`record`)
derives the observables from the kernel route's eta, once.
"""

from __future__ import annotations

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
# perfbench's CSV round trip calls emit_csv and read_csv_record through this module
from .record import TimeSeriesRecord, emit_csv, read_csv_record  # noqa: F401
from .solver import (
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
