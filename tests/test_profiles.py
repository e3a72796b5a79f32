"""Tests for the frequency control schedules."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcool.profiles import FrequencyProfile, ProfileShape, omega_at


def test_sine_opening_endpoints():
    prof = FrequencyProfile()
    assert omega_at(prof, 0.0, 2.0) == 1.0
    assert omega_at(prof, 1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    # holds the open value past the ramp
    assert omega_at(prof, 1.5, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert omega_at(prof, 10.0, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_sine_opening_midpoint():
    prof = FrequencyProfile()
    expected = 1.0 - 0.5 * math.sin(0.25 * math.pi)
    assert omega_at(prof, 0.5, 2.0) == pytest.approx(expected, abs=1e-15)


def test_sine_opening_monotone_nonincreasing():
    prof = FrequencyProfile()
    for r in (1.5, 2.0, 3.0):
        w = omega_at(prof, np.linspace(0.0, 1.0, 401), r)
        assert np.all(np.diff(w) <= 0.0)
        assert w.min() >= 1.0 / r - 1e-15


def test_reversed_closing_mirrors_opening():
    opening = FrequencyProfile()
    closing = FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING)
    s = np.linspace(0.0, 1.0, 201)
    np.testing.assert_allclose(
        omega_at(closing, s, 3.0), omega_at(opening, 1.0 - s, 3.0), rtol=0, atol=1e-15
    )
    # closing ends closed and stays there
    assert omega_at(closing, 0.0, 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert omega_at(closing, 1.0, 3.0) == 1.0
    assert omega_at(closing, 4.0, 3.0) == 1.0


def test_duration_rescales_ramp():
    unit = FrequencyProfile()
    slow = FrequencyProfile(duration=4.0)
    s = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(
        omega_at(slow, 4.0 * s, 2.0), omega_at(unit, s, 2.0), rtol=0, atol=1e-15
    )


def test_constant_profile():
    prof = FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.75)
    s = np.linspace(0.0, 7.0, 11)
    np.testing.assert_allclose(omega_at(prof, s, 2.0), 0.75, rtol=0, atol=0)
    assert omega_at(prof, 0.3, 2.0) == 0.75


def test_piecewise_linear_interpolates():
    pts = ((0.0, 1.0), (0.5, 0.6), (2.0, 0.9))
    prof = FrequencyProfile(shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=pts)
    s = np.linspace(0.0, 3.0, 61)
    expected = np.interp(s, [p[0] for p in pts], [p[1] for p in pts])
    np.testing.assert_allclose(omega_at(prof, s, 2.0), expected, rtol=0, atol=1e-15)
    # flat extrapolation beyond the last breakpoint
    assert omega_at(prof, 5.0, 2.0) == pytest.approx(0.9, abs=1e-15)


positive = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


@st.composite
def profiles(draw):
    shape = draw(st.sampled_from(ProfileShape))
    if shape is ProfileShape.CONSTANT:
        return FrequencyProfile(shape, level=draw(positive))
    if shape is ProfileShape.PIECEWISE_LINEAR:
        times = draw(st.lists(positive, min_size=1, max_size=6, unique=True))
        ws = draw(st.lists(positive, min_size=len(times) + 1, max_size=len(times) + 1))
        return FrequencyProfile(shape, breakpoints=tuple(zip([0.0] + sorted(times), ws)))
    return FrequencyProfile(shape, duration=draw(positive))


def test_hold_start_per_shape():
    assert FrequencyProfile(duration=0.3).hold_start == 0.3
    closing = FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING)
    assert closing.hold_start == 1.0
    constant = FrequencyProfile(shape=ProfileShape.CONSTANT)
    assert constant.hold_start == 0.0
    pts = ((0.0, 1.0), (0.5, 0.6), (2.0, 0.9))
    prof = FrequencyProfile(shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=pts)
    assert prof.hold_start == 2.0


def test_kinks_are_where_the_slope_jumps():
    pts = ((0.0, 1.0), (0.5, 0.6), (2.0, 0.9))
    shapes = [
        (FrequencyProfile(shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=pts), (0.5, 2.0)),
        (FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING, duration=0.3), (0.3,)),
        # the opening meets its hold at zero slope, but its curvature jumps by ~14
        (FrequencyProfile(duration=0.3), (0.3,)),
        (FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.7), ()),
    ]
    eps = 1e-4
    for prof, kinks in shapes:
        assert prof.kinks == kinks
        for s in kinks + (0.3, 0.5, 2.0):
            w = [omega_at(prof, s + j * eps, 2.0) for j in (-2, -1, 0, 1, 2)]
            slope_jump = (w[3] - 2.0 * w[2] + w[1]) / eps
            curvature_jump = (w[4] - 2.0 * w[3] + 2.0 * w[1] - w[0]) / eps**2
            assert (abs(slope_jump) > 0.1 or abs(curvature_jump) > 1.0) == (s in kinks)


MONOTONE_EXAMPLES = {
    ProfileShape.SINE_OPENING: (FrequencyProfile(), FrequencyProfile(duration=0.30013)),
    ProfileShape.REVERSED_SINE_CLOSING: (
        FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING, duration=2.5),
    ),
    ProfileShape.CONSTANT: (FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.7),),
    ProfileShape.PIECEWISE_LINEAR: (
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            breakpoints=((0.0, 1.0), (0.30013, 0.5), (0.5, 0.5), (1.7, 1.3)),
        ),
    ),
}


@pytest.mark.parametrize("shape", list(ProfileShape), ids=lambda shape: shape.value)
@pytest.mark.parametrize("r", [1.0, 2.0, 7.5])
def test_omega_is_monotone_between_kinks(shape, r):
    # cycle._largest_occupation reads a segment's largest occupation at its start,
    # kinks and end alone; a new shape needs examples here (KeyError)
    for prof in MONOTONE_EXAMPLES[shape]:
        points = (0.0, *prof.kinks, prof.hold_start + 1.0)
        for a, b in zip(points, points[1:]):
            steps = np.diff(omega_at(prof, np.linspace(a, b, 20_001), r))
            assert np.all(steps >= 0.0) or np.all(steps <= 0.0)


@settings(max_examples=300, deadline=None)
@given(
    profiles(),
    st.floats(min_value=1.0, max_value=10.0),
    st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=8),
)
def test_omega_is_bit_constant_from_the_hold_on(prof, r, offsets):
    held = omega_at(prof, prof.hold_start, r)
    s = prof.hold_start + np.array(offsets)
    assert np.all(s >= prof.hold_start)
    for si in s.tolist():
        assert omega_at(prof, si, r) == held
    assert omega_at(prof, s, r).tobytes() == np.full(s.size, held).tobytes()


@pytest.mark.parametrize(
    "shape", [ProfileShape.SINE_OPENING, ProfileShape.REVERSED_SINE_CLOSING],
    ids=lambda shape: shape.value,
)
def test_sine_ramp_position_does_not_overflow(shape):
    # min(s, duration)/duration is s/duration clipped to 1 bit for bit, and
    # a subnormal duration overflows nothing (a traceback under -W error)
    s = np.array([0.0, 5e-324, 1e-310, 1e-5, 0.3, 1.0, 2.0, 40.0, 1e300])
    for duration in (5e-324, 1e-310, 1e-300, 1e-5, 0.3, 1.0, 40.0, 1e5, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            omega = omega_at(FrequencyProfile(shape, duration=duration), s, 2.0)
        with np.errstate(over="ignore"):
            x = np.minimum(s / duration, 1.0)
        angle = 0.5 * math.pi * (x if shape is ProfileShape.SINE_OPENING else 1.0 - x)
        assert omega.tobytes() == (1.0 + (1.0 / 2.0 - 1.0) * np.sin(angle)).tobytes()


def test_scalar_and_array_returns():
    prof = FrequencyProfile()
    assert isinstance(omega_at(prof, 0.25, 2.0), float)
    out = omega_at(prof, np.array([0.0, 0.5, 1.0]), 2.0)
    assert out.shape == (3,)


def test_rejects_negative_time():
    prof = FrequencyProfile()
    with pytest.raises(ValueError, match="s must be >= 0"):
        omega_at(prof, -0.1, 2.0)
    with pytest.raises(ValueError):
        omega_at(prof, np.array([0.0, -1.0]), 2.0)
    with pytest.raises(ValueError):
        omega_at(prof, math.nan, 2.0)


def test_duration_is_refused_where_it_would_be_ignored():
    pts = {"breakpoints": ((0.0, 1.0), (2.0, 0.5))}
    for shape, extra in ((ProfileShape.CONSTANT, {}), (ProfileShape.PIECEWISE_LINEAR, pts)):
        message = f"duration applies to the sine shapes only, not {shape.value}"
        with pytest.raises(ValueError, match=message):
            FrequencyProfile(shape, duration=4.0, **extra)
        assert FrequencyProfile(shape, duration=1.0, **extra) == FrequencyProfile(shape, **extra)
    for shape in (ProfileShape.SINE_OPENING, ProfileShape.REVERSED_SINE_CLOSING):
        assert FrequencyProfile(shape, duration=4.0).hold_start == 4.0


def test_profile_validation():
    with pytest.raises(ValueError, match="duration"):
        FrequencyProfile(duration=0.0)
    with pytest.raises(ValueError, match="level"):
        FrequencyProfile(shape=ProfileShape.CONSTANT, level=-1.0)
    with pytest.raises(ValueError, match="two breakpoints"):
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0),)
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            breakpoints=((0.0, 1.0), (0.0, 0.5)),
        )
    with pytest.raises(ValueError, match="s = 0"):
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            breakpoints=((0.1, 1.0), (1.0, 0.5)),
        )
    with pytest.raises(ValueError, match="positive"):
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            breakpoints=((0.0, 1.0), (1.0, 0.0)),
        )
    for bad in ((math.inf, 0.5), (1.0, math.nan)):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            FrequencyProfile(shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), bad))
    # shape-specific fields are refused on every other shape
    with pytest.raises(ValueError, match="level applies to the constant shape only"):
        FrequencyProfile(level=0.3)
    with pytest.raises(ValueError, match="level applies"):
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR,
            level=0.5,
            breakpoints=((0.0, 1.0), (1.0, 0.5)),
        )
    with pytest.raises(ValueError, match="breakpoints apply to the piecewise-linear shape only"):
        FrequencyProfile(
            shape=ProfileShape.CONSTANT, breakpoints=((0.0, 1.0), (1.0, 0.5))
        )
    with pytest.raises(ValueError, match="breakpoints apply"):
        FrequencyProfile(
            shape=ProfileShape.REVERSED_SINE_CLOSING,
            breakpoints=((0.0, 1.0), (1.0, 0.5)),
        )


def test_shape_enum_values():
    assert ProfileShape.SINE_OPENING.value == "sine-opening"
    assert ProfileShape.CONSTANT.value == "constant"
    assert ProfileShape.PIECEWISE_LINEAR.value == "piecewise-linear"
    assert ProfileShape.REVERSED_SINE_CLOSING.value == "reversed-sine-closing"
