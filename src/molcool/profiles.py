"""Control schedules for the cavity frequency.

Frequencies are expressed as omega/omega1 (closed-configuration units)
and times as s = t/tau_open.  Every shape holds its final value past its
end, so profiles compose cleanly into multi-segment cycles.

A profile is a schedule only.  The frequency ratio r = omega1/omega0
is stored once, in the run's `DimensionlessParams`, and `omega_at`
takes it from its caller.

`FrequencyProfile.hold_start` is where that hold begins.  From it on,
`omega_at` returns the same bits for every s: the sine shapes divide
min(s, duration) by duration, exactly 1.0 there, and `np.interp`
returns the last breakpoint's value itself at and past its s.  The
solvers rely on this to evaluate the forcing of a held stretch once
instead of at every point of it.
`FrequencyProfile.kinks` lists where omega is not smooth; both eta
routes split their sample intervals there.

`omega_at` checks its s and then runs `_omega_core`, the one place
omega(s) is computed.  `solver.occupation_at`, on the package's own
grids (all finite and >= 0), calls the core directly and gets the same
bits without paying for the checks.  A piecewise-linear profile builds
the two breakpoint arrays the core interpolates, `_table`, once, when it
is made: a run evaluates omega once per kinked interval and per oracle
step, and building them costs O(breakpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ProfileShape(Enum):
    """The shapes omega(s)/omega1 takes over a segment; each value is the
    shape's name in a config file's [profile] section."""

    SINE_OPENING = "sine-opening"
    CONSTANT = "constant"
    PIECEWISE_LINEAR = "piecewise-linear"
    REVERSED_SINE_CLOSING = "reversed-sine-closing"


@dataclass(frozen=True)
class FrequencyProfile:
    """One control segment for omega(s)/omega1.

    `level` applies to CONSTANT only; `breakpoints` ((s, omega/omega1)
    pairs, s ascending from 0) to PIECEWISE_LINEAR only; other shapes
    reject a `level` other than 1 and any `breakpoints`.  The sine shapes
    run between the closed value 1 and the open value 1/r over `duration`,
    r being the run's `DimensionlessParams.freq_ratio_r`.  `duration`
    applies to the sine shapes only: the constant shape holds from s = 0
    and the piecewise-linear one from its last breakpoint, and both
    reject a `duration` other than 1.
    """

    shape: ProfileShape = ProfileShape.SINE_OPENING
    duration: float = 1.0
    level: float = 1.0
    breakpoints: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.duration != 1.0 and self.shape in (
            ProfileShape.CONSTANT, ProfileShape.PIECEWISE_LINEAR
        ):
            raise ValueError(f"duration applies to the sine shapes only, not {self.shape.value}")
        if self.shape is ProfileShape.CONSTANT:
            if not (math.isfinite(self.level) and self.level > 0.0):
                raise ValueError(f"constant profile needs a positive level, got {self.level}")
        elif self.level != 1.0:
            raise ValueError(f"level applies to the constant shape only, not {self.shape.value}")
        if self.shape is ProfileShape.PIECEWISE_LINEAR:
            pts = self.breakpoints
            if len(pts) < 2:
                raise ValueError("piecewise-linear profile needs at least two breakpoints")
            ss = [p[0] for p in pts]
            ws = [p[1] for p in pts]
            if any(not (math.isfinite(a) and math.isfinite(w)) for a, w in pts):
                raise ValueError("breakpoints must be finite")
            if any(b <= a for a, b in zip(ss, ss[1:])):
                raise ValueError("breakpoint times must be strictly increasing")
            if ss[0] != 0.0:
                raise ValueError("first breakpoint must be at s = 0")
            if any(w <= 0.0 for w in ws):
                raise ValueError("breakpoint frequencies must be positive")
            object.__setattr__(self, "_table", (np.array(ss, float), np.array(ws, float)))
        elif self.breakpoints:
            raise ValueError(
                f"breakpoints apply to the piecewise-linear shape only, not {self.shape.value}"
            )

    @property
    def hold_start(self) -> float:
        """The s from which omega_at returns its final value, bit for bit."""
        if self.shape is ProfileShape.CONSTANT:
            return 0.0
        if self.shape is ProfileShape.PIECEWISE_LINEAR:
            return float(self.breakpoints[-1][0])
        return self.duration

    @property
    def kinks(self) -> tuple[float, ...]:
        """The s > 0 at which omega is not smooth: every breakpoint after
        the first, and the end of a sine shape, where the reversed closing's
        slope jumps and the opening's curvature does.  `cycle._largest_occupation`
        relies on omega being monotone between 0, the kinks and a segment's end."""
        if self.shape is ProfileShape.PIECEWISE_LINEAR:
            return tuple(float(p[0]) for p in self.breakpoints[1:])
        if self.shape is ProfileShape.CONSTANT:
            return ()
        return (self.duration,)


def omega_at(profile: FrequencyProfile, s, r: float):
    """omega(s)/omega1 for scalar or array s >= 0 (profile-local time), at
    the run's frequency ratio `r` (its `DimensionlessParams.freq_ratio_r`),
    which sets the sine shapes' open value 1/r."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_arr)) or np.any(s_arr < 0.0):
        raise ValueError("s must be >= 0 and finite")
    w = _omega_core(profile, s_arr, r)
    if np.ndim(s) == 0:
        return float(w)
    return w


def _omega_core(profile: FrequencyProfile, s, r: float):
    """`omega_at`'s arithmetic, unchecked: s must be finite and >= 0, a
    float or a float array; returns a numpy scalar or array."""
    if profile.shape is ProfileShape.SINE_OPENING:
        # s/duration clipped to [0, 1], bit for bit, without overflowing at
        # a subnormal duration
        x = np.minimum(s, profile.duration) / profile.duration
        return 1.0 + (1.0 / r - 1.0) * np.sin(0.5 * math.pi * x)
    if profile.shape is ProfileShape.REVERSED_SINE_CLOSING:
        x = np.minimum(s, profile.duration) / profile.duration
        return 1.0 + (1.0 / r - 1.0) * np.sin(0.5 * math.pi * (1.0 - x))
    if profile.shape is ProfileShape.CONSTANT:
        return np.full_like(s, profile.level)
    return np.interp(s, *profile._table)
