"""Tests for cycle orchestration, sweeps, CSV/plot emission, and config files."""

import hashlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molcool.cycle
import molcool.record
from molcool import solver
from molcool.cli import main
from molcool.cycle import (
    SOLVER_AGREEMENT_RTOL,
    CycleConfig,
    FiniteDwell,
    SweepRow,
    SweepSpec,
    ThermalClosed,
    _cross_check,
    _nearest_indices,
    _record_omega,
    default_cycle_config,
    run_cycle,
    run_sweep,
    sweep_range_values,
)
from molcool.errors import SolverCrossCheckError, SolverError
from molcool.files import (
    SWEEP_CSV_HEADER,
    emit_plot_script,
    emit_sweep_csv,
    parse_config,
    serialize_config,
)
from molcool.oracle import evolve_populations
from molcool.profiles import FrequencyProfile, ProfileShape, omega_at
from molcool.record import (
    CSV_HEADER,
    TimeSeriesRecord,
    _decimal12,
    _format_cells,
    _printed_digits,
    emit_csv,
    read_csv_record,
)
from molcool.solver import EtaTrajectory, evolve_eta_closed_form, evolve_eta_ode
from molcool.thermo import OccupationUnderflow
from molcool.units import DimensionlessParams


@pytest.fixture(scope="module")
def default_result():
    return run_cycle(default_cycle_config())


def test_default_cycle_summary(default_result):
    summary = default_result.summary
    assert summary.min_t_ratio == pytest.approx(0.667407478804, abs=1e-9)
    assert summary.argmin_s == pytest.approx(0.782, abs=1e-9)
    assert summary.recovery.recovered
    assert summary.recovery.s == pytest.approx(5.6063788796, abs=1e-6)
    assert summary.final_eta == pytest.approx(31.7515083541, abs=1e-6)
    record = default_result.record
    assert len(record) == 20001
    assert record.s[0] == 0.0 and record.s[-1] == 10.0
    assert default_result.oracle is None


def test_closed_configuration_is_inert():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=1.0, gamma_tau_g=1.0)
    res = run_cycle(CycleConfig(dimensionless=d, horizon=2.0))
    assert np.max(np.abs(res.record.T_ratio - 1.0)) <= 1e-10


def test_record_cells_are_quantized(default_result):
    record = default_result.record
    # every stored value survives a 12-significant-digit text roundtrip
    for column in (
        record.s, record.omega_over_omega1, record.eta, record.mean_n, record.T_ratio
    ):
        assert all(float(f"{v:.11e}") == v for v in column.tolist())


# `_decimal12` scales |x| by 10**clip(11 - floor(log10|x|), 0, 22): values
# on either side of 1e-11 and 1e12, where the clip starts, and the
# mantissas that round up to the next exponent right there
CLIP_EDGES = sorted(
    {
        float(x)
        for edge in (1e-11, 1e12, 9.99999999999995e-12, 999999999999.5)
        for x in (
            edge, *np.nextafter(edge, [0.0, np.inf]),
            np.nextafter(np.nextafter(edge, 0.0), 0.0),
            np.nextafter(np.nextafter(edge, np.inf), np.inf),
        )
    }
)
# every power of ten from 1e-300 to 1e300, where `_decimal12`'s one compare
# may split a binade, and its neighbours on either side
POWERS_OF_TEN = [
    float(x) for n in range(-300, 301)
    for x in (float(f"1e{n}"), *np.nextafter(float(f"1e{n}"), [0.0, np.inf]))
]
# values whose "%.11e" digits leave the decimal kernel's fast path, or sit
# where a one-off exponent or a wrong rounding direction would show
FORMAT_EDGE_CASES = [
    -0.0,
    0.0,
    9.9999999999996,        # rounds up to 1.00000000000e+01
    -9.99999999999951,      # rounds up to -1.00000000000e+01
    123456789012.5,         # exact tie, rounds half-even
    5.606394622305,         # times 1e11 rounds to a tie; the exact product is above it
    1e-150,                 # three-digit exponents
    1e200,
    5e-324,
    1.7976931348623157e308,
    *CLIP_EDGES,
    *(-v for v in CLIP_EDGES),
    *POWERS_OF_TEN,
    *(-v for v in POWERS_OF_TEN),
]


def python_csv_rows(rows) -> bytes:
    return "".join(",".join(f"{v:.11e}" for v in row) + "\n" for row in rows).encode()


def format_rows(block) -> bytes:
    """CSV bytes of a (rows, columns) block of finite values, formatted by
    `_format_cells` from the digits `_decimal12` works out here."""
    return b"".join(_format_cells(*_decimal12(np.asarray(block, dtype=float))))


def assert_formats_like_python(values):
    values = [float(v) for v in values]
    expected = np.array([float(f"{v:.11e}") for v in values])
    quantized, d, e = _decimal12(np.array(values))
    assert np.array_equal(quantized.view(np.uint64), expected.view(np.uint64))
    # the digits kept beside the values print them
    printed = [f"{m // 10**11}.{m % 10**11:011d}e{x:+03d}" for m, x in zip(d.tolist(), e.tolist())]
    assert printed == [f"{abs(v):.11e}" for v in values]
    block = np.array(values).reshape(-1, 1)
    assert format_rows(block) == "".join(f"{v:.11e}\n" for v in values).encode()
    if len(values) % 5 == 0:
        rows = np.array(values).reshape(-1, 5)
        assert format_rows(rows) == python_csv_rows(rows.tolist())


def test_decimal_kernel_edge_cases(tmp_path):
    assert_formats_like_python(FORMAT_EDGE_CASES)
    # the same cells through a record and its CSV file
    n = len(FORMAT_EDGE_CASES)
    record = TimeSeriesRecord(
        s=np.arange(n, dtype=float), omega_over_omega1=np.ones(n),
        eta=FORMAT_EDGE_CASES, mean_n=np.ones(n), T_ratio=np.ones(n),
    )
    path = tmp_path / "edges.csv"
    emit_csv(record, path)
    lines = path.read_text().split("\n")[1:-1]
    assert [line.split(",")[2] for line in lines] == [f"{v:.11e}" for v in FORMAT_EDGE_CASES]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_decimal_kernel_matches_python_format(values):
    assert_formats_like_python(values)


def test_decimal_kernel_matches_python_format_near_half():
    # mantissas whose fraction lies within 3e-4 of a half, on either side
    # of it or, rounded to a double, on it (6,914 products, which
    # `_decimal12` hands to "%.11e"), at every exponent from 1e-11 to 1e11,
    # of either sign
    rng = np.random.default_rng(34)
    fractions = 0.5 + rng.uniform(-3e-4, 3e-4, (23, 2000))
    mantissas = rng.integers(10**11, 10**12, (23, 2000)) + fractions
    values = mantissas * 10.0 ** np.arange(-22.0, 1.0)[:, None]
    assert_formats_like_python((values * rng.choice([-1.0, 1.0], values.shape)).ravel())


def test_reference_record_prints_few_values_through_python_format(monkeypatch):
    # the reproduce-fig4 record's 100,005 values: zeros and products on a
    # half take "%.11e", 2 of them; a band of 1e-4 around the half takes 10
    printed = []

    def counted(x):
        printed.append(x)
        return _printed_digits(x)

    monkeypatch.setattr(molcool.record, "_printed_digits", counted)
    assert len(run_cycle(default_cycle_config()).record) * 5 == 100_005
    assert printed == [0.0, 0.7304308385445]


def test_mantissas_that_round_up_to_1e12_stay_on_the_fast_path(monkeypatch):
    # 10^j (1 - 4e-13) prints as 1.00000000000e(j) at every j the product
    # scales, as held T_ratio cells within 5e-13 of 1 do; none takes "%.11e"
    printed = []

    def counted(x):
        printed.append(x)
        return _printed_digits(x)

    monkeypatch.setattr(molcool.record, "_printed_digits", counted)
    values = [10.0**j * (1.0 - 4e-13) for j in range(-10, 13)]
    q, d, e = _decimal12(np.array(values))
    assert printed == []
    expected = [_printed_digits(v) for v in values]
    assert list(zip(q.tolist(), d.tolist(), e.tolist())) == expected


# log-uniform over [1e-13, 1e14], across both clip edges, of either sign, and zeros
STRADDLING = st.one_of(
    st.floats(-13.0, 14.0).map(lambda t: 10.0**t), st.just(0.0), st.sampled_from(CLIP_EDGES)
).flatmap(lambda x: st.sampled_from([x, -x]))


def assert_block_formats_like_python(block):
    """`_decimal12` of a (rows, 5) block gives each cell's "%.11e" value and
    digits, and `_format_cells` its bytes."""
    q, d, e = _decimal12(block)
    assert q.shape == d.shape == e.shape == block.shape
    cells = block.reshape(-1).tolist()
    expected = np.array([float(f"{v:.11e}") for v in cells])
    assert np.array_equal(q.reshape(-1).view(np.uint64), expected.view(np.uint64))
    printed = [
        f"{m // 10**11}.{m % 10**11:011d}e{x:+03d}"
        for m, x in zip(d.reshape(-1).tolist(), e.reshape(-1).tolist())
    ]
    assert printed == [f"{abs(v):.11e}" for v in cells]
    assert b"".join(_format_cells(q, d, e)) == python_csv_rows(block.tolist())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda k: st.lists(st.lists(STRADDLING, min_size=5, max_size=5), min_size=k, max_size=k)
    )
)
def test_decimal_kernel_blocks_straddle_the_clip_edges(rows):
    assert_block_formats_like_python(np.array(rows))


def sign_block(cells):
    """A (6, 5) block of log-uniform values in [1e-3, 1e3] with `cells`
    (row, column) -> value set."""
    block = 10.0 ** np.random.default_rng(40).uniform(-3.0, 3.0, (6, 5))
    for at, value in cells.items():
        block[at] = value
    return block


# one block for each of `_decimal12`'s sign cases: a sign bit held by -0.0
# alone, one negative cell in the last row, and none (a +0.0 among them)
SIGN_BLOCKS = {
    "only -0.0": sign_block({(2, 3): -0.0}),
    "negative last row": sign_block({(5, 1): -2.5}),
    "no negative": sign_block({(3, 0): 0.0}),
}


@pytest.mark.parametrize("name", SIGN_BLOCKS)
def test_decimal12_keeps_every_sign_bit_in_place_or_not(name):
    block = SIGN_BLOCKS[name]
    cells = block.reshape(-1).tolist()
    expected = np.array([float(f"{v:.11e}") for v in cells])
    in_place = block.copy()
    out = (in_place, np.empty(block.shape, np.int64), np.empty(block.shape, np.int16))
    for q, d, e in (_decimal12(block), _decimal12(in_place, out=out)):
        assert np.array_equal(q.reshape(-1).view(np.uint64), expected.view(np.uint64))
        digits = [f"{m // 10**11}.{m % 10**11:011d}e{x:+03d}"
                  for m, x in zip(d.reshape(-1).tolist(), e.reshape(-1).tolist())]
        assert digits == [f"{abs(v):.11e}" for v in cells]
    assert out[0] is in_place and np.array_equal(block, SIGN_BLOCKS[name])


# one block for each of `_format_cells`' layouts
LAYOUT_BLOCKS = {
    "unsigned": sign_block({}),
    "signed prefix": sign_block({(0, 0): -1.5, (1, 0): -0.0}),
    "fallback": sign_block({(5, 1): -2.5}),
}


@pytest.mark.parametrize("name", LAYOUT_BLOCKS)
def test_format_cells_bytes_are_python_format(name):
    block = LAYOUT_BLOCKS[name]
    out = _format_cells(*_decimal12(block))
    # a block's cells come back as a view, uncopied, behind its "-"-prefixed
    # rows if it has them, unless they are printed value by value
    assert [type(part) for part in out] == {
        "unsigned": [memoryview], "signed prefix": [memoryview] * 2, "fallback": [bytes],
    }[name]
    assert b"".join(out) == python_csv_rows(block.tolist())


SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)
NEAR_1E100 = st.floats(min_value=9.9e99, max_value=1.1e100)  # e+99 | e+100
NEAR_1E_MINUS_100 = st.floats(min_value=9.9e-101, max_value=1.1e-99)  # e-101 | e-100 | e-99
CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 9.999999999996e99, 9.999999999996e-100]),
    SUBNORMAL, NEAR_1E100, NEAR_1E_MINUS_100, st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, -x]))
# one of each in a single column, so a sign or exponent that leaks into
# a neighbour shows in that column's rows
COLUMN_ANCHORS = (0.0, -0.0, 5e-324, -3.25, 9.9e99, 1.0e100, -1.0e-100, 2.5e-99, 7.0, 1e-5)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(len(COLUMN_ANCHORS), 16).flatmap(
        lambda k: st.lists(st.lists(CELL_VALUES, min_size=5, max_size=5), min_size=k, max_size=k)
    ),
    column=st.integers(0, 4),
    anchors=st.permutations(COLUMN_ANCHORS),
)
def test_format_rows_mixes_signs_and_exponent_widths(rows, column, anchors):
    for row, anchor in zip(rows, anchors):
        row[column] = anchor
    out = format_rows(np.array(rows))
    assert out == python_csv_rows(rows)
    assert b"\0" not in out


def table_entries(table):
    """The bytes each entry of a cell table writes."""
    return [table[i:i + 1].tobytes() for i in range(table.size)]


def test_cell_tables_match_python_format():
    record = molcool.record
    # "D.DDD" and 3 zero bytes, which the next store overwrites ("0.000" is zero's)
    assert table_entries(record._HEAD) == [
        f"{i // 1000}.{i % 1000:03d}".encode() + bytes(3) for i in range(10_000)
    ]
    assert table_entries(record._QUAD) == [f"{i:04d}".encode() for i in range(10_000)]
    # 3 zero bytes, which the last store overwrites, the exponent and the separator
    assert table_entries(record._TAIL) == [
        bytes(3) + f"e{e:+03d}{sep}".encode() for sep in ",\n" for e in range(-99, 100)
    ]
    for table in (record._HEAD, record._QUAD, record._TAIL):
        assert not table.flags.writeable


def test_cells_at_every_exponent_and_mantissa_edge_print_like_python():
    # every two-digit exponent, with the first four digits 1000 or 9999 and
    # each later group of four 0000 or 9999, before "," and before "\n"
    mantissas = [f"{h}{m}{low}" for h in ("1000", "9999")
                 for m in ("0000", "9999") for low in ("0000", "9999")]
    values = [float(f"{m[0]}.{m[1:]}e{e:+03d}") for e in range(-99, 100) for m in mantissas]
    _, d, e = _decimal12(np.array(values))
    assert [f"{x:012d}" for x in d.tolist()] == mantissas * 199
    assert sorted(set(e.tolist())) == list(range(-99, 100))
    block = np.column_stack([values, values])
    out = format_rows(block)
    assert out == python_csv_rows(block.tolist())
    assert b"\0" not in out


def exact_floor_log10_of_power_of_two(n: int) -> int:
    """floor(log10 2**n), in Python integers: 2**n has that many digits
    less one for n >= 0; for n < 0, 10**-F is the least power of ten above
    2**-n, never equal to it."""
    return len(str(2**n)) - 1 if n >= 0 else -len(str(2**-n))


def test_exponent_tables_hold_each_binade_floor_log10():
    record = molcool.record
    floors = record._BINADE_LOG10.tolist()
    assert floors[1:2047] == [exact_floor_log10_of_power_of_two(b - 1023) for b in range(1, 2047)]
    # at 2 b + c: c = 1 past the binade's power of ten, the clipped scale and its exponent
    k = np.clip(11 - (np.array(floors)[:, None] + np.arange(2)), 0, 22).reshape(-1)
    assert record._EXPONENT.tolist() == (11 - k).tolist()
    assert record._SCALE.tolist() == [float(10**i) for i in k.tolist()]
    for table in (record._BINADE_LOG10, record._TEN_ABOVE, record._SCALE, record._EXPONENT):
        assert not table.flags.writeable


def test_dwell_csv_matches_python_format(tmp_path):
    # 28,001 rows in 14 blocks; s < 0 through the dwell, so one block
    # holds both signs in the s column and the rest hold one
    d = default_cycle_config().dimensionless
    record = run_cycle(CycleConfig(dimensionless=d, init_mode=FiniteDwell(dwell=3.0))).record
    n, block = len(record), molcool.record._BLOCK_ROWS
    assert n == 28001 and -(-n // block) == 14
    signs = {
        (bool(np.any(record.s[lo:lo + block] < 0)), bool(np.any(record.s[lo:lo + block] >= 0)))
        for lo in range(0, n, block)
    }
    assert signs == {(True, False), (True, True), (False, True)}
    path = tmp_path / "cycle.csv"
    emit_csv(record, path)
    columns = (record.s, record.omega_over_omega1, record.eta, record.mean_n, record.T_ratio)
    rows = np.stack(columns, axis=1).tolist()
    assert path.read_bytes() == CSV_HEADER.encode() + b"\n" + python_csv_rows(rows)


def test_signed_blocks_print_like_python(monkeypatch):
    # a record's negative cells are a prefix of its s column, which
    # `_format_cells` writes as whole rows, each behind one "-"; any other
    # sign pattern is printed value by value with "%.11e", by `_fmt`
    d = default_cycle_config().dimensionless
    record = run_cycle(CycleConfig(dimensionless=d, init_mode=FiniteDwell(dwell=3.0))).record
    values = np.array(record._quantized[0])
    block = molcool.record._BLOCK_ROWS
    prefix = np.array([[-1.5, 0.5, 2.0, 1.0, 0.75], [-0.0, 0.5, 2.0, 1.0, 0.75],
                       [0.0, 0.5, 2.0, 1.0, 0.75], [1e-5, 0.5, 2.0, 1.0, 0.75]])
    scattered = values[7998:8004].copy()
    scattered[4, 1] *= -1.0
    one_more = values[:4].copy()
    one_more[1, 3] *= -1.0
    blocks = {
        "negative-s prefix": (prefix, 0),
        "every s negative": (values[:block], 0),
        "straddles the sign change": (values[3 * block : 4 * block], 0),
        "scattered signs": (scattered, 1),
        "every s negative and one more cell": (one_more, 1),
    }
    printed = []
    fmt = molcool.record._fmt

    def spy(value):
        printed.append(value)
        return fmt(value)

    monkeypatch.setattr(molcool.record, "_fmt", spy)
    for name, (cells, by_value) in blocks.items():
        printed.clear()
        assert format_rows(cells) == python_csv_rows(cells.tolist()), name
        assert len(printed) == by_value * cells.size, name
    assert np.count_nonzero(values[3 * block : 4 * block, 0] < 0.0) == 8000 - 3 * block


RECORD_OMEGA_SHAPES = {
    "sine, hold on a sample": FrequencyProfile(),
    "sine, hold mid-interval": FrequencyProfile(duration=0.30025),
    "sine, no hold": FrequencyProfile(duration=5.0),
    "reversed closing": FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING),
    "constant": FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.8),
    "piecewise linear": FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.4, 0.5), (1.2345, 0.75)),
    ),
}


@pytest.mark.parametrize("name", RECORD_OMEGA_SHAPES)
def test_record_omega_is_omega_at_bit_for_bit(name, monkeypatch):
    # omega is evaluated up to the first sample at or past hold_start, and
    # that sample's bits fill the rest
    profile = RECORD_OMEGA_SHAPES[name]
    s = np.linspace(0.0, 2.0, 2 * solver.SAMPLES_PER_UNIT + 1)
    evaluated = []

    def counted(prof, t, r):
        evaluated.append(t.size)
        return omega_at(prof, t, r)

    monkeypatch.setattr(molcool.cycle, "omega_at", counted)
    assert _record_omega(profile, s, 3.0).tobytes() == omega_at(profile, s, 3.0).tobytes()
    assert evaluated == [min(s.size, int(np.searchsorted(s, profile.hold_start)) + 1)]


@pytest.mark.parametrize("mode", [ThermalClosed(), FiniteDwell(dwell=0.5)])
@pytest.mark.parametrize("name", RECORD_OMEGA_SHAPES)
def test_run_cycle_records_omega_at_bit_for_bit(name, mode, monkeypatch):
    # each segment's omega, the finite-dwell closing and dwell included
    parts = []

    def recorded(prof, s, r):
        parts.append((prof, s, r, _record_omega(prof, s, r)))
        return parts[-1][-1]

    monkeypatch.setattr(molcool.cycle, "_record_omega", recorded)
    d = DimensionlessParams(theta0=0.1, freq_ratio_r=3.0, gamma_tau_g=2.0)
    run_cycle(CycleConfig(d, RECORD_OMEGA_SHAPES[name], mode, horizon=2.0))
    assert len(parts) == (1 if isinstance(mode, ThermalClosed) else 3)
    for prof, s, r, omega in parts:
        assert omega.tobytes() == omega_at(prof, s, r).tobytes()


def test_record_validation():
    with pytest.raises(ValueError, match="equal length"):
        TimeSeriesRecord(
            s=[0.0, 1.0], omega_over_omega1=[1.0], eta=[2.0, 2.0],
            mean_n=[1.0, 1.0], T_ratio=[1.0, 1.0],
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeriesRecord(
            s=[0.0, 0.0], omega_over_omega1=[1.0, 1.0], eta=[2.0, 2.0],
            mean_n=[1.0, 1.0], T_ratio=[1.0, 1.0],
        )
    # 1.0 and 1.0 + 1e-13 differ as floats but print the same 12 digits:
    # the check reads the quantized s
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeriesRecord(
            s=[1.0, 1.0 + 1e-13], omega_over_omega1=[1.0, 1.0], eta=[2.0, 2.0],
            mean_n=[1.0, 1.0], T_ratio=[1.0, 1.0],
        )
    with pytest.raises(ValueError, match="finite"):
        TimeSeriesRecord(
            s=[0.0, 1.0], omega_over_omega1=[1.0, np.inf], eta=[2.0, 2.0],
            mean_n=[1.0, 1.0], T_ratio=[1.0, 1.0],
        )


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1.0], ids=["inf", "nan", "ground state"])
def test_record_names_the_first_sample_without_a_temperature(bad):
    # an infinite eta passes a ground-state check alone and reaches the
    # temperature's division; each fault is refused with its sample's s
    s = np.array([0.0, 0.5, 1.0, 1.5])
    traj = EtaTrajectory(s, np.array([2.0, 2.0, bad, np.inf]))
    fault = "is at or below the ground-state limit 1 + 1e-12" if bad == 1.0 else "is not finite"
    with pytest.raises(ValueError, match=re.escape(f"eta = {bad!r} at s = 1 {fault}")):
        TimeSeriesRecord.from_trajectory(traj, np.ones(4), 0.064)


def test_csv_roundtrip_is_byte_identical(tmp_path, default_result):
    first = tmp_path / "cycle.csv"
    second = tmp_path / "again.csv"
    emit_csv(default_result.record, first)
    emit_csv(read_csv_record(first), second)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n") and "\r" not in text
    # fixed-width scientific cells, 12 significant digits
    assert re.fullmatch(r"(-?\d\.\d{11}e[+-]\d{2,3})(,-?\d\.\d{11}e[+-]\d{2,3}){4}", lines[1])


def record_rows(record):
    return np.stack([getattr(record, name) for name in CSV_HEADER.split(",")], axis=1)


def assert_csv_roundtrip(record, path):
    """emit_csv writes Python's "%.11e" cells, and reading them back gives
    every column bit for bit."""
    emit_csv(record, path)
    rows = record_rows(record)
    assert path.read_bytes() == CSV_HEADER.encode() + b"\n" + python_csv_rows(rows.tolist())
    back = read_csv_record(path)
    assert np.array_equal(record_rows(back).view(np.uint64), rows.view(np.uint64))


# values whose blocks take every cell layout: positive with two-digit
# exponents, holding a negative, holding a three-digit exponent
LAYOUT_VALUES = st.one_of(
    st.floats(min_value=1e-99, max_value=9.99e99),
    st.floats(min_value=-9.99e99, max_value=9.99e99),
    SUBNORMAL, st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    columns=st.integers(1, 40).flatmap(
        lambda n: st.lists(st.lists(LAYOUT_VALUES, min_size=n, max_size=n), min_size=4, max_size=4)
    ),
    start=st.sampled_from([0.0, -3.5, 1e-120, -2e150]),
)
def test_csv_roundtrip_reproduces_any_record(tmp_path_factory, columns, start):
    n = len(columns[0])
    s = start + np.arange(n) * max(abs(start), 1.0)  # strictly increasing, also past 12 digits
    record = TimeSeriesRecord(s, *columns)
    assert_csv_roundtrip(record, tmp_path_factory.mktemp("roundtrip") / "cycle.csv")


@settings(max_examples=40, deadline=None)
@given(
    columns=st.integers(3, 40).flatmap(
        lambda n: st.lists(st.lists(STRADDLING, min_size=n, max_size=n), min_size=4, max_size=4)
    )
)
def test_csv_roundtrip_of_values_straddling_the_clip_edges(tmp_path_factory, columns):
    n = len(columns[0])
    s = np.concatenate(([-1e13, 0.0], np.geomspace(1e-13, 1e14, n - 2)))
    record = TimeSeriesRecord(s, *columns)
    given_rows = np.column_stack([s, *columns]).tolist()
    expected = np.array([[float(f"{v:.11e}") for v in row] for row in given_rows])
    assert np.array_equal(record_rows(record).view(np.uint64), expected.view(np.uint64))
    assert_csv_roundtrip(record, tmp_path_factory.mktemp("straddling") / "cycle.csv")


def test_csv_blocks_of_every_layout(tmp_path, monkeypatch):
    block = molcool.record._BLOCK_ROWS
    n = 3 * block
    # the first block holds negatives at its first cell, at the cell just
    # after its first "\n", mid-row, at a row's last cell and at its last cell
    s = np.linspace(0.0, 3.0, n)
    s[:2] = (-2.0, -1.0)
    eta = np.linspace(1.5, 40.0, n)
    eta[7] = -2.5
    t_ratio = np.full(n, 0.75)
    t_ratio[[5, block - 1]] = -0.75
    eta[2 * block + 11] = 1.0e100  # the third block holds the smallest three-digit exponent
    record = TimeSeriesRecord(s, np.ones(n), eta, np.full(n, 0.5), t_ratio)
    layouts = []
    format_cells = molcool.record._format_cells

    def spy(q, d, e):
        layouts.append((bool(np.signbit(q).any()), bool(np.abs(e).max() >= 100)))
        return format_cells(q, d, e)

    monkeypatch.setattr(molcool.record, "_format_cells", spy)
    assert_csv_roundtrip(record, tmp_path / "cycle.csv")
    assert layouts == [(True, False), (False, False), (False, True)]


def test_emit_csv_reuses_the_record_digits(tmp_path, monkeypatch, default_result):
    expected = tmp_path / "expected.csv"
    emit_csv(default_result.record, expected)

    def refuse(*args, **kwargs):
        raise AssertionError("emit_csv worked out digits the record keeps")

    monkeypatch.setattr(molcool.record, "_decimal12", refuse)
    path = tmp_path / "cycle.csv"
    emit_csv(default_result.record, path)
    assert path.read_bytes() == expected.read_bytes()


def test_records_are_immutable(default_result):
    record = default_result.record
    with pytest.raises(FrozenInstanceError):
        record.eta = record.eta * 2.0
    for name in CSV_HEADER.split(","):
        column = getattr(record, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
        with pytest.raises(ValueError):
            column.flags.writeable = True
    for table in record._quantized:
        assert not table.flags.writeable


def test_empty_record_emits_header_only(tmp_path):
    empty = TimeSeriesRecord(s=[], omega_over_omega1=[], eta=[], mean_n=[], T_ratio=[])
    assert len(empty) == 0
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert len(read_csv_record(path)) == 0
    # a plot of no samples is refused, not written
    with pytest.raises(ValueError, match="cannot emit a plot script for an empty record"):
        emit_plot_script(empty, tmp_path / "cycle_plot.py")
    assert not (tmp_path / "cycle_plot.py").exists()


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,eta\n0.0,2.0\n")
    with pytest.raises(ValueError, match="expected header"):
        read_csv_record(path)


def test_read_csv_names_the_line_of_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n0.0,1.0,2.0,1.0,1.0\n1.0,1.0,x,1.0,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string")):
        read_csv_record(path)


def test_read_csv_names_a_row_of_four_cells(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(f"{CSV_HEADER}\n0.0,1.0,2.0,1.0,1.0\n1.0,1.0,2.0,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 5 columns")):
        read_csv_record(path)


@pytest.mark.parametrize("layout", ["emitted", "spaced"])
@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.0,1.0,2.0,1.0,1.0", "1.0,1.0,nan,1.0,1.0"], "record values must all be finite"),
        (["1.0,1.0,2.0,1.0,1.0", "0.5,1.0,2.0,1.0,1.0"], "sample times must be strictly increasing"),
    ],
)
def test_read_csv_names_the_file_of_a_refused_record(tmp_path, monkeypatch, layout, rows, message):
    # every cell parses, so the record itself refuses them, on the one-pass
    # parse ("emitted", which leaves the row loop unread) as on the row loop
    # ("spaced")
    import csv

    if layout == "emitted":
        monkeypatch.setattr(csv, "reader", None)
    body = "".join(row + "\n" for row in rows)
    path = tmp_path / f"{layout}.csv"
    path.write_text(f"{CSV_HEADER}\n" + (body.replace(",", ", ") if layout == "spaced" else body))
    with pytest.raises(ValueError) as excinfo:
        read_csv_record(path)
    assert str(excinfo.value) == f"{path}: {message}"


def row_by_row(path):
    """The columns of a CSV file read as `csv.reader` splits it, one float() per cell."""
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER.split(",")
    return np.array([[float(v) for v in row] for row in rows[1:]]).reshape(-1, 5)


@pytest.mark.parametrize(
    "layout",
    ["lf", "crlf", "crlf-header", "mixed", "no-final-newline", "quoted", "spaced", "lone-cr"],
)
def test_read_csv_reads_any_layout_as_the_row_loop_does(tmp_path, default_result, layout):
    # the one-pass parse takes only the layout it can read; every other file
    # is read row by row, and both give what csv.reader and float() give
    first = tmp_path / "cycle.csv"
    emit_csv(default_result.record, first)
    text = first.read_bytes()[: 40 * 74]  # the header and about 40 rows
    text = text[: text.rindex(b"\n") + 1]
    head, body = text.split(b"\n", 1)
    changed = {
        "lf": text,
        "crlf": text.replace(b"\n", b"\r\n"),
        "crlf-header": text.replace(b"\n", b"\r\n", 1),
        "mixed": text.replace(b"\n", b"\r\n", 7),
        "no-final-newline": text[:-1],
        "quoted": head + b'\n"' + body.replace(b",", b'",', 1),
        "spaced": head + b"\n" + body.replace(b",", b", "),
        "lone-cr": text.replace(b"\n", b"\r"),
    }[layout]
    path = tmp_path / f"{layout}.csv"
    path.write_bytes(changed)
    expected = row_by_row(path)
    assert expected.shape[0] > 30
    assert np.array_equal(record_rows(read_csv_record(path)), expected)


# the full text of a cross-check failure, with the worst relative disagreement
RELATIVE_AT_S = r" by \d\.\d{3}e[+-]\d{2} relative at s = -?\d[\d.e+-]* "


def test_solver_cross_check_guards_coarse_steps(monkeypatch):
    # the routes on a 10-samples-per-unit grid, RK4 with one 0.1 substep
    # each, g h = 1, once the bound on g h allows it
    monkeypatch.setattr(solver, "SAMPLES_PER_UNIT", 10)
    monkeypatch.setattr(solver, "STEP_SIZE", 0.1)
    monkeypatch.setattr(solver, "_MAX_GH", 1.0)
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=10.0)
    shape = (
        "^solver cross-check failed: eta routes disagree"
        + RELATIVE_AT_S + r"\(allowed 1e-06\)$"
    )
    with pytest.raises(SolverCrossCheckError, match=shape):
        run_cycle(CycleConfig(dimensionless=d))


def test_grid_and_step_settings_govern_both_routes_and_the_pre_check(monkeypatch):
    # one value of each module constant is read by both eta routes and by
    # run_cycle's size check, which refuses a grid before either route runs
    monkeypatch.setattr(solver, "SAMPLES_PER_UNIT", 50)
    monkeypatch.setattr(solver, "STEP_SIZE", 2e-3)
    d = default_cycle_config().dimensionless
    kernel = evolve_eta_closed_form(d, FrequencyProfile(), horizon=2.0)
    rk4 = evolve_eta_ode(d, FrequencyProfile(), horizon=2.0)
    assert kernel.s.tobytes() == rk4.s.tobytes() == np.linspace(0.0, 2.0, 101).tobytes()
    assert rk4.step_size == 2e-3
    record = run_cycle(CycleConfig(dimensionless=d, horizon=2.0)).record
    assert len(record) == 101 and record.s[-1] == 2.0

    def refuse(*args):
        raise AssertionError("an eta route ran before the grid was checked")

    monkeypatch.setattr(molcool.cycle, "evolve_eta_closed_form", refuse)
    monkeypatch.setattr(molcool.cycle, "evolve_eta_ode", refuse)
    for samples_per_unit, step_size, count in ((50, 1e-9, "2e+10"), (10**8, 2e-3, "2e+09")):
        monkeypatch.setattr(solver, "SAMPLES_PER_UNIT", samples_per_unit)
        monkeypatch.setattr(solver, "STEP_SIZE", step_size)
        refusal = re.escape(f"a substep grid of {count} points (horizon 10 ")
        with pytest.raises(SolverError, match=refusal):
            run_cycle(CycleConfig(dimensionless=d))
        with pytest.raises(SolverError, match=refusal):
            evolve_eta_ode(d, FrequencyProfile(), horizon=10.0)


def test_over_stiff_coupling_is_refused_before_the_fixed_step_route(monkeypatch):
    # g D = 1e4 / 2000 = 5 per sample interval is past what the kernel's
    # 8-point rule resolves (`solver._MAX_GD`), so run_cycle's pre-check
    # refuses it before either eta route starts or the oracle's ladder is sized
    started = []
    for name in ("evolve_eta_closed_form", "evolve_eta_ode", "populations_from_quenched"):
        monkeypatch.setattr(molcool.cycle, name, lambda *args: started.append(args))
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1e4)
    with pytest.raises(
        SolverError,
        match=r"^coupling too stiff for the kernel quadrature: g D = 5 per sample interval",
    ):
        run_cycle(CycleConfig(dimensionless=d, with_oracle=True))
    assert started == []


STIFF_JUMPS = {
    # openings that jump at s = 0, which cost RK4 its order on the first substep
    "constant 0.5": FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.5),
    "reversed sine": FrequencyProfile(shape=ProfileShape.REVERSED_SINE_CLOSING),
}


@pytest.mark.parametrize("mode", [ThermalClosed(), FiniteDwell(1.0)], ids=["thermal", "dwell"])
@pytest.mark.parametrize("g", [1.5e3, 3e3, 6e3, 8.47e3])
@pytest.mark.parametrize("opening", STIFF_JUMPS)
def test_stiff_jumps_pass_the_solver_cross_check(opening, g, mode):
    # the fixed step takes its substep from g, so g h stays at most
    # `solver._MAX_GH` and the witness agrees with the kernel route to 1e-7
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=g)
    result = run_cycle(CycleConfig(d, STIFF_JUMPS[opening], mode, horizon=2.0))
    assert result.margins["solver"][0] <= 1e-7


def test_the_substep_follows_g_only_past_1e4_max_gh():
    # D = 1/2000: up to g = 1e4 _MAX_GH, STEP_SIZE sets m = 5, as it always
    # did, and past it g h = _MAX_GH does; the smooth sine at g = 8e3 then
    # agrees to 1e-11
    bound = 1e4 * solver._MAX_GH
    for horizon in (2.0, 10.0):
        assert {solver._substeps(horizon, g) for g in np.linspace(0.0, bound, 101)} == {5}
        assert solver._substeps(horizon, bound * (1.0 + 1e-6)) == 6
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=8e3)
    assert run_cycle(CycleConfig(dimensionless=d, horizon=2.0)).margins["solver"][0] <= 1e-11


def test_run_cycle_evaluates_no_hold_it_does_not_reach():
    # the breakpoints hold from s = 20 at theta0 r omega = 800, where the
    # occupation underflows; a 2-unit run reaches theta 98 at most, so it
    # answers with no warning, and with the values it had when it warned
    opening = FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (20.0, 40.0))
    )
    d = DimensionlessParams(theta0=10.0, freq_ratio_r=2.0, gamma_tau_g=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cycle(CycleConfig(d, opening, horizon=2.0))
    summary = result.summary
    assert (summary.min_t_ratio, summary.argmin_s, summary.final_eta) == (
        1.00000000169, 0.0, 1.00000000029
    )
    assert summary.recovery.s == 0.0
    assert result.margins == {"solver": (8.060219156471747e-14, 2.0)}


def test_reference_commands_keep_their_solver_margins(default_result):
    # `reproduce-fig4` and `cycle --init-mode finite-dwell --dwell 3`: a
    # change meant to move no bit keeps each check's margin and its s
    assert default_result.margins == {"solver": (1.3164140542522728e-13, 7.439)}
    dwell = run_cycle(replace(default_cycle_config(), init_mode=FiniteDwell(dwell=3.0)))
    assert dwell.margins == {"solver": (1.316174905170842e-13, 5.363)}


def test_kinks_inside_substeps_keep_the_fixed_step_order():
    # the ramp's kinks at 0.50013 and 0.50513 fall inside 1e-4 substeps; the
    # RK4 route splits those substeps there, so it keeps its 4th order and
    # the run answers within the unchanged tolerance, where an unsplit
    # substep over a kink put the routes 1.278e-06 apart at s = 0.5055
    assert SOLVER_AGREEMENT_RTOL == 1e-6
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=100.0)
    ramp = FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.50013, 1.0), (0.50513, 0.5)),
    )
    result = run_cycle(CycleConfig(dimensionless=d, profile=ramp, horizon=2.0))
    assert result.summary.argmin_s == pytest.approx(0.505)
    rk4 = evolve_eta_ode(d, ramp, horizon=2.0)
    assert np.max(np.abs(rk4.eta / result.record.eta - 1.0)) < 1e-8


def test_breakpoints_are_read_once_per_profile(monkeypatch):
    # every omega evaluation of a run, the oracle's one per step and the
    # RK4 route's one per kinked interval included, interpolates the arrays
    # the profile built when it was made: none is rebuilt from the tuple
    ramp = FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (0.30025, 0.75), (0.60013, 0.7), (1.00013, 0.5)),
    )
    tables = []
    interp = np.interp

    def spy(x, xp, fp, *args, **kwargs):
        tables.append((xp, fp))
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    result = run_cycle(CycleConfig(dimensionless=d, profile=ramp, horizon=3.0, with_oracle=True))
    assert set(result.margins) == {"solver", "oracle"}
    xp, fp = tables[0]
    assert len(tables) > 100
    assert all(x is xp and f is fp for x, f in tables)


@pytest.mark.parametrize(
    "init_mode, bound_mb",
    # measured 2.92 and 3.97 MB with the record in one (samples, 5) layout
    # quantized 1,024 rows at a time, and 2.86 and 3.93 MB with q stored
    # one row per column, 4,096 values at a time; bounded 10% above an
    # earlier 2.84 and 3.90 MB.  The same runs peaked at 4.18 and 5.14 MB
    # while the record quantized a stacked copy of its columns 16,384
    # values at a time, and at 5.78 and 7.39 MB while every route segment
    # and the whole fixed-step trajectory were kept
    [(ThermalClosed(), 3.1), (FiniteDwell(dwell=3.0), 4.3)],
    ids=["thermal-closed", "dwell-3"],
)
def test_cycle_memory_peak(init_mode, bound_mb):
    cfg = replace(default_cycle_config(), init_mode=init_mode)
    run_cycle(cfg)  # warm: one-time allocations are not the run's
    tracemalloc.start()
    try:
        run_cycle(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_oracle_cross_check_refuses_a_disagreeing_mean(monkeypatch):
    def one_percent_high(*args, **kwargs):
        traj = evolve_populations(*args, **kwargs)
        traj.mean_n = traj.mean_n * 1.01
        return traj

    monkeypatch.setattr(molcool.cycle, "evolve_populations", one_percent_high)
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    cfg = CycleConfig(dimensionless=d, horizon=3.0, with_oracle=True)
    shape = (
        "^oracle cross-check failed: mean occupation disagrees with eta"
        + RELATIVE_AT_S + r"\(allowed 0\.001\)$"
    )
    with pytest.raises(SolverCrossCheckError, match=shape):
        run_cycle(cfg)


def test_cross_check_refuses_a_nan_disagreement():
    s = np.array([0.0, 0.5, 1.0])
    reference = np.ones(3)
    _cross_check("oracle", "means disagree", s, np.array([1.0, 1.0005, 1.0]), reference, 1e-3)
    # nan compares false against any bound, so it must fail, not pass
    with pytest.raises(SolverCrossCheckError, match=r"by nan relative at s = 0\.5 "):
        _cross_check("oracle", "means disagree", s, np.array([1.0, np.nan, 1.0]), reference, 1e-3)
    with pytest.raises(SolverCrossCheckError, match=r"by nan relative at s = 1 "):
        _cross_check("oracle", "means disagree", s[1:], np.array([1.0, np.nan]), reference[1:], 1e-3)


def test_cross_checks_return_the_margin_they_passed_by(monkeypatch):
    # measured: the solver check passes by 1.316e-13 at s = 7.439 (reference)
    # and at s = 5.363 (dwell 3); the oracle's by 1.93e-8 at s = 6.13
    passed = []

    def spy(route, *args):
        passed.append((route, *_cross_check(route, *args)))
        return passed[-1][1:]

    monkeypatch.setattr(molcool.cycle, "_cross_check", spy)
    results = [
        run_cycle(default_cycle_config()),
        run_cycle(replace(default_cycle_config(), init_mode=FiniteDwell(dwell=3.0))),
    ]
    d = DimensionlessParams(theta0=0.01, freq_ratio_r=2.0, gamma_tau_g=1.0)
    results.append(run_cycle(CycleConfig(dimensionless=d, with_oracle=True)))
    # each result carries the margins its checks passed by
    kept = [(route, *margin) for res in results for route, margin in res.margins.items()]
    assert kept == passed
    (ref, ref_rel, ref_s), (dwell, dwell_rel, dwell_s), _, (oracle, oracle_rel, oracle_s) = passed
    assert (ref, dwell, oracle) == ("solver", "solver", "oracle")
    assert ref_rel < 1e-12 and ref_s == pytest.approx(7.439)
    assert dwell_rel < 1e-12 and dwell_s == pytest.approx(5.363)
    assert oracle_rel < 1e-7 and oracle_s == pytest.approx(6.13)


def test_oracle_cross_check_runs():
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    cfg = CycleConfig(dimensionless=d, horizon=3.0, with_oracle=True)
    res = run_cycle(cfg)
    assert res.oracle is not None
    assert res.oracle.s[-1] == 3.0
    # mean occupation and the eta route describe one distribution
    idx = _nearest_indices(res.record.s, res.oracle.s)
    rel = np.abs((res.oracle.mean_n + 1.0) / res.record.eta[idx] - 1.0)
    assert np.max(rel) < 1e-3


def test_finite_dwell_extends_the_record():
    base = default_cycle_config().dimensionless
    res0 = run_cycle(CycleConfig(dimensionless=base, init_mode=FiniteDwell(dwell=0.0)))
    assert res0.record.s[0] == -1.0
    assert res0.record.s[-1] == 10.0
    res6 = run_cycle(CycleConfig(dimensionless=base, init_mode=FiniteDwell(dwell=6.0)))
    assert res6.record.s[0] == -7.0
    # a long dwell rethermalizes, so the cooling depth is nearly the
    # thermal-closed value without reaching it exactly
    assert res6.summary.min_t_ratio == pytest.approx(0.667797437947, abs=1e-6)
    assert abs(res6.summary.min_t_ratio - 0.667407478804) < 1e-3


@st.composite
def opening_profiles(draw, shape):
    """Profiles of one shape; frequencies within a factor 5 of closed, kinks anywhere."""
    level = st.floats(min_value=0.2, max_value=2.0)
    if shape is ProfileShape.CONSTANT:
        return FrequencyProfile(shape, level=draw(level))
    if shape is ProfileShape.PIECEWISE_LINEAR:
        times = draw(st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=3))
        times = sorted(set(times))
        ws = draw(st.lists(level, min_size=len(times) + 1, max_size=len(times) + 1))
        return FrequencyProfile(shape, breakpoints=tuple(zip([0.0] + times, ws)))
    return FrequencyProfile(shape, duration=draw(st.floats(min_value=0.1, max_value=3.0)))


INIT_MODES = {
    "thermal-closed": st.just(ThermalClosed()),
    "finite-dwell": st.builds(FiniteDwell, st.floats(min_value=0.0, max_value=2.0)),
}


@pytest.mark.parametrize("mode", INIT_MODES)
@pytest.mark.parametrize("shape", ProfileShape, ids=lambda shape: shape.value)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    data=st.data(),
    theta0=st.floats(min_value=-3.0, max_value=0.7).map(lambda x: 10.0**x),
    r=st.floats(min_value=1.0, max_value=5.0),
    g=st.floats(min_value=0.0, max_value=30.0),
)
def test_temperature_ratio_keeps_the_adiabatic_bound(shape, mode, data, theta0, r, g):
    """w(s) / max w <= T_ratio(s) <= w(s) / min w, extremes over [start, s].

    eta(s) is a convex combination of the equilibrium values nu(theta0 r w) + 1
    seen since the start, the start's own included: w = 1 when thermal at the
    closed frequency, w = 1/r when thermal at the open one.  T_ratio rises
    with eta at fixed w(s), so it lies between its values at those extremes.
    """
    d = DimensionlessParams(theta0=theta0, freq_ratio_r=r, gamma_tau_g=g)
    init_mode = data.draw(INIT_MODES[mode])
    cfg = CycleConfig(
        dimensionless=d, profile=data.draw(opening_profiles(shape)), init_mode=init_mode,
        horizon=2.0,
    )
    try:
        traj = run_cycle(cfg).record
    except (ValueError, SolverError, SolverCrossCheckError):
        return  # a refusal the CLI maps to exit 2 or 3 is an answer too
    w_start = 1.0 if isinstance(init_mode, ThermalClosed) else 1.0 / r
    w = traj.omega_over_omega1
    seen = np.concatenate([[w_start], w])
    lower = w / np.maximum.accumulate(seen)[1:]
    upper = w / np.minimum.accumulate(seen)[1:]
    assert np.all(traj.T_ratio >= lower * (1.0 - 1e-9))
    assert np.all(traj.T_ratio <= upper * (1.0 + 1e-9))


def test_cycle_config_validation():
    dims = default_cycle_config().dimensionless
    with pytest.raises(ValueError, match="cover at least the opening"):
        CycleConfig(dimensionless=dims, horizon=0.5)
    with pytest.raises(ValueError, match="profile must be a FrequencyProfile"):
        CycleConfig(dimensionless=dims, profile=None)
    with pytest.raises(ValueError, match="unknown init_mode"):
        CycleConfig(dimensionless=dims, init_mode="thermal")
    with pytest.raises(ValueError, match="dwell"):
        FiniteDwell(dwell=-1.0)


def test_sweep_row_matches_single_run(default_result):
    spec = SweepSpec(axis="freq_ratio_r", values=(2.0,), base=default_cycle_config())
    (row,) = run_sweep(spec)
    assert row.error is None
    assert row.axis_value == 2.0
    assert row.min_t_ratio == default_result.summary.min_t_ratio
    assert row.argmin_s == default_result.summary.argmin_s
    assert row.recovery_s == default_result.summary.recovery.s
    assert row.recovered is True


@pytest.mark.parametrize(
    "profile",
    [
        FrequencyProfile(duration=2.0),
        FrequencyProfile(
            shape=ProfileShape.PIECEWISE_LINEAR, breakpoints=((0.0, 1.0), (0.5, 0.6), (1.5, 0.8))
        ),
    ],
    ids=["sine opening over 2", "piecewise linear"],
)
def test_ratio_sweep_runs_the_profile_at_each_r(profile):
    dims = default_cycle_config().dimensionless
    base = CycleConfig(dimensionless=dims, profile=profile, horizon=3.0)
    spec = SweepSpec(axis="freq_ratio_r", values=(1.5, 3.0), base=base)
    for row in run_sweep(spec):
        at_r = replace(base, dimensionless=replace(dims, freq_ratio_r=row.axis_value))
        summ = run_cycle(at_r).summary
        assert row.error is None
        assert (row.min_t_ratio, row.argmin_s) == (summ.min_t_ratio, summ.argmin_s)
        assert (row.recovery_s, row.recovered) == (summ.recovery.s, summ.recovery.recovered)


def test_sweep_worker_count_is_immaterial():
    spec = SweepSpec(
        axis="gamma_tau_g", values=(0.5, 1.0, 2.0), base=default_cycle_config()
    )
    assert run_sweep(spec, max_workers=1) == run_sweep(spec, max_workers=3)


def test_sweep_workers_flag_is_capped(capsys):
    # --workers has a lower bound only
    argv = ["sweep", "--axis", "theta0", "--values", "0.02,0.03,0.04", "--horizon", "1"]
    assert main(argv + ["--workers", "1000000"]) == 0
    assert capsys.readouterr().out.count("min T_ratio = ") == 3
    spec = SweepSpec(axis="theta0", values=(0.03,), base=default_cycle_config())
    with pytest.raises(ValueError, match="max_workers must be at least 1, got 0"):
        run_sweep(spec, max_workers=0)


@pytest.mark.filterwarnings("ignore::molcool.thermo.OccupationUnderflow")
def test_sweep_captures_per_row_failures():
    spec = SweepSpec(axis="theta0", values=(0.032, 800.0), base=default_cycle_config())
    rows = run_sweep(spec)
    assert rows[0].error is None
    assert rows[1].min_t_ratio is None
    assert rows[1].recovered is None
    assert "eta0 must exceed 1" in rows[1].error


def test_sweep_spec_rejects_bad_values_eagerly():
    with pytest.raises(ValueError):
        SweepSpec(axis="freq_ratio_r", values=(2.0, 0.5), base=default_cycle_config())
    with pytest.raises(ValueError, match="axis must be one of"):
        SweepSpec(axis="temperature", values=(1.0,), base=default_cycle_config())
    with pytest.raises(ValueError, match="at least one value"):
        SweepSpec(axis="theta0", values=(), base=default_cycle_config())


def test_sweep_range_values():
    np.testing.assert_allclose(sweep_range_values(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(
        sweep_range_values(0.1, 10.0, 3, spacing="log"), (0.1, 1.0, 10.0), rtol=1e-12
    )
    with pytest.raises(ValueError, match="count"):
        sweep_range_values(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="min <= max"):
        sweep_range_values(2.0, 1.0, 3)
    with pytest.raises(ValueError, match="positive minimum"):
        sweep_range_values(0.0, 1.0, 3, spacing="log")
    with pytest.raises(ValueError, match="spacing"):
        sweep_range_values(0.0, 1.0, 3, spacing="cubic")


def test_sweep_csv_layout(tmp_path):
    rows = [
        SweepRow(1.5, 0.785, 0.9, 5.1, True),
        SweepRow(800.0, None, None, None, None, error="ValueError: nope"),
    ]
    path = tmp_path / "sweep.csv"
    emit_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("1.50000000000e+00,") and lines[1].endswith(",true,")
    assert lines[2].split(",")[1:5] == ["", "", "", ""]
    assert lines[2].endswith("ValueError: nope")


def test_cycle_plot_script_runs(tmp_path, default_result):
    emit_csv(default_result.record, tmp_path / "cycle.csv")
    script = tmp_path / "cycle_plot.py"
    emit_plot_script(default_result.record, script)
    text = script.read_text()
    assert "CSV_NAME = 'cycle.csv'" in text and "matplotlib" in text
    compile(text, str(script), "exec")
    pytest.importorskip("matplotlib")
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cycle.png").exists()


def test_sweep_plot_script_runs(tmp_path):
    rows = [SweepRow(v, 0.7, 0.8, 5.0, True) for v in (1.5, 2.0, 3.0)]
    emit_sweep_csv(rows, tmp_path / "sweep.csv")
    script = tmp_path / "sweep_plot.py"
    emit_plot_script(rows, script, axis="freq_ratio_r")
    text = script.read_text()
    assert "CSV_NAME = 'sweep.csv'" in text and "matplotlib" in text
    compile(text, str(script), "exec")
    pytest.importorskip("matplotlib")
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.png").exists()


def test_plot_script_exits_when_csv_is_missing(tmp_path):
    record = TimeSeriesRecord(
        s=np.array([0.0, 1.0]),
        omega_over_omega1=np.array([1.0, 2.0]),
        eta=np.array([3.0, 2.5]),
        mean_n=np.array([2.0, 1.5]),
        T_ratio=np.array([1.0, 0.9]),
    )
    sources = {"cycle": record, "sweep": [SweepRow(2.0, 0.7, 0.8, 5.0, True)]}
    for kind, source in sources.items():
        script = tmp_path / f"{kind}_plot.py"
        emit_plot_script(source, script)
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True
        )
        assert proc.returncode != 0
        output = proc.stderr + proc.stdout
        assert f"input CSV not found: {tmp_path / f'{kind}.csv'}" in output
    with pytest.raises(ValueError, match="empty"):
        emit_plot_script([], tmp_path / "nope.py")


def test_dwell_title_marks_extension_mode(tmp_path):
    base = default_cycle_config().dimensionless
    res = run_cycle(CycleConfig(dimensionless=base, init_mode=FiniteDwell(dwell=1.0)))
    script = tmp_path / "cycle_plot.py"
    emit_plot_script(res.record, script)
    assert "extension mode" in script.read_text()


# sha256 of each plot script `emit_plot_script` writes; its cycle and sweep
# scripts share one skeleton, whose every byte these pin
PLOT_SCRIPT_SHA256 = {
    "opening": "310e75bbdba4bad4b944468bec28a53efd1f766e013b7cee588db338b5924ce8",
    "finite dwell": "aaabceb5672c62aaac4887569e62b8f7c3880b082751bc215bf41fa69859566c",
    "sweep over theta0": "047ff1d01c7f108dbfe01c5c84c19677f27c1756060c6d584d990162ff3b115f",
}


def test_plot_scripts_keep_their_bytes(tmp_path):
    def record(s):
        ones = np.ones(len(s))
        return TimeSeriesRecord(np.array(s), ones, 2.0 * ones, ones, ones)

    sources = {
        "opening": (record([0.0, 1.0]), {}),
        "finite dwell": (record([-1.0, 0.0]), {}),
        "sweep over theta0": ([SweepRow(0.032)], {"axis": "theta0"}),
    }
    digests = {}
    for name, (source, axis) in sources.items():
        script = tmp_path / f"{name}.py"
        emit_plot_script(source, script, **axis)
        digests[name] = hashlib.sha256(script.read_bytes()).hexdigest()
    assert digests == PLOT_SCRIPT_SHA256


def test_config_roundtrips_exactly():
    configs = [
        default_cycle_config(),
        CycleConfig(
            dimensionless=DimensionlessParams(theta0=0.1, freq_ratio_r=2.5, gamma_tau_g=0.3),
            profile=FrequencyProfile(
                shape=ProfileShape.PIECEWISE_LINEAR,
                breakpoints=((0.0, 1.0), (0.7, 0.4), (2.0, 1.0)),
            ),
            init_mode=FiniteDwell(dwell=3.5),
            horizon=8.0,
            with_oracle=True,
            output_dir="out/run7",
        ),
        CycleConfig(
            dimensionless=DimensionlessParams(theta0=0.05, freq_ratio_r=3.0, gamma_tau_g=2.0),
            profile=FrequencyProfile(duration=2.0),
        ),
        CycleConfig(
            dimensionless=DimensionlessParams(theta0=0.05, freq_ratio_r=1.0, gamma_tau_g=2.0),
            profile=FrequencyProfile(shape=ProfileShape.CONSTANT, level=0.75),
        ),
    ]
    # values are literal: no % interpolation, and a # not after whitespace is no comment
    for directory in ("runs/100%", "runs/%(theta0)s", "runs/a#1", "runs/%%#"):
        configs.append(replace(default_cycle_config(), output_dir=directory))
    # numpy 2 reprs a scalar as np.float32(2.0), which float() refuses: each
    # number is written as its float's repr
    configs += [
        CycleConfig(
            dimensionless=DimensionlessParams(
                theta0=np.float32(0.1), freq_ratio_r=np.float64(2.5), gamma_tau_g=np.int64(3)
            ),
            profile=FrequencyProfile(duration=np.float32(2.0)),
            init_mode=FiniteDwell(dwell=np.float32(1.5)),
            horizon=np.int64(8),
        ),
        CycleConfig(
            dimensionless=DimensionlessParams(np.int64(1), np.float32(2.0), np.float32(0.3)),
            profile=FrequencyProfile(shape=ProfileShape.CONSTANT, level=np.float32(0.75)),
        ),
        CycleConfig(
            dimensionless=DimensionlessParams(np.float64(0.05), np.int64(3), np.float64(2.0)),
            profile=FrequencyProfile(
                shape=ProfileShape.PIECEWISE_LINEAR,
                breakpoints=((np.float64(0.0), np.float32(1.0)), (np.int64(2), np.float32(0.4))),
            ),
        ),
    ]
    for cfg in configs:
        assert parse_config(serialize_config(cfg)) == cfg
    # a trailing comma in breakpoints adds no point; csv, the one format, may be named
    text = serialize_config(configs[1])
    assert "2.0:1.0\n" in text and "directory = out/run7\n" in text
    text = text.replace("2.0:1.0\n", "2.0:1.0,\n")
    text = text.replace("directory = out/run7\n", "directory = out/run7\nformat = csv\n")
    assert parse_config(text) == configs[1]
    # duration is written for the sine shapes only, which are the shapes that take it
    written = [("duration = " in serialize_config(cfg)) for cfg in configs[1:4]]
    assert written == [False, True, False]


def test_emission_and_reading_name_the_path_they_fail_on(tmp_path):
    missing = tmp_path / "no such directory"
    record = TimeSeriesRecord([0.0, 1.0], [1.0, 0.5], [2.0, 2.5], [1.0, 1.5], [1.0, 0.9])
    rows = [SweepRow(axis_value=1.0, error="ValueError: synthetic")]
    failures = [
        (lambda path: emit_csv(record, path), "cycle.csv", "CSV emission to"),
        (lambda path: emit_sweep_csv(rows, path), "sweep.csv", "CSV emission to"),
        (lambda path: emit_plot_script(record, path), "plot_cycle.py", "plot-script emission to"),
        (read_csv_record, "cycle.csv", "CSV read from"),
    ]
    for call, name, message in failures:
        path = missing / name
        with pytest.raises(OSError, match=f"^{re.escape(f'{message} {path} failed: ')}"):
            call(path)
    assert not missing.exists()


def test_config_parse_errors():
    good = serialize_config(default_cycle_config())
    with pytest.raises(ValueError, match="unknown config section"):
        parse_config(good + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ValueError, match=r"unknown key\(s\) in \[run\]"):
        parse_config(good.replace("horizon = ", "speed = 3\nhorizon = "))
    with pytest.raises(ValueError, match="missing"):
        parse_config("[dimensionless]\ntheta0 = 0.032\n")
    with pytest.raises(ValueError, match="needs a \\[dimensionless\\] section"):
        parse_config("[run]\nhorizon = 10\n")
    with pytest.raises(ValueError, match="DEFAULT"):
        parse_config("[DEFAULT]\nx = 1\n" + good)
    with pytest.raises(ValueError, match="unknown profile shape"):
        parse_config(
            good + "\n[profile]\nshape = triangle\nduration = 1.0\n"
        )
    with pytest.raises(ValueError, match="dwell applies to init_mode finite-dwell only"):
        parse_config(good.replace("init_mode = thermal-closed", "init_mode = thermal-closed\ndwell = 2"))
    with pytest.raises(ValueError, match="unknown init_mode 'warm'"):
        parse_config(good.replace("init_mode = thermal-closed", "init_mode = warm"))
    with pytest.raises(ValueError, match="s:omega form"):
        parse_config(
            good
            + "\n[profile]\nshape = piecewise-linear\nduration = 1.0\nbreakpoints = 0.0;1.0\n"
        )
    with pytest.raises(ValueError, match="malformed config"):
        parse_config("not an ini file at all [")
    with pytest.raises(ValueError, match="unsupported output format 'json'"):
        parse_config(good + "\n[output]\nformat = json\n")
    with pytest.raises(ValueError, match="not a boolean: 'maybe'"):
        parse_config(good.replace("with_oracle = false", "with_oracle = maybe"))
    # keys of another shape are rejected, not kept where they would break the roundtrip
    with pytest.raises(ValueError, match="level applies to the constant shape only"):
        parse_config(good + "\n[profile]\nshape = sine-opening\nlevel = 0.3\n")
    with pytest.raises(ValueError, match="breakpoints apply to the piecewise-linear shape only"):
        parse_config(good + "\n[profile]\nshape = sine-opening\nbreakpoints = 0:1, 1:0.5\n")
    with pytest.raises(ValueError, match="duration applies to the sine shapes only, not constant"):
        parse_config(good + "\n[profile]\nshape = constant\nlevel = 0.5\nduration = 2\n")
    # a directory that would come back as another one is refused, not written
    for directory, read in (("runs/a #1", "runs/a"), (" runs/b", "runs/b")):
        with pytest.raises(ValueError, match=re.escape(f"output_dir {directory!r} would read back")):
            serialize_config(replace(default_cycle_config(), output_dir=directory))
        assert parse_config(good + f"\n[output]\ndirectory = {directory}\n").output_dir == read


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
