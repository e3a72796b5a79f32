"""Tests for cycle orchestration, sweeps, CSV/plot emission, and config files."""

import functools
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molcool.cycle
from molcool.cli import main
from molcool.cycle import (
    CSV_HEADER,
    SOLVER_AGREEMENT_RTOL,
    SWEEP_CSV_HEADER,
    CycleConfig,
    FiniteDwell,
    SweepRow,
    SweepSpec,
    ThermalClosed,
    TimeSeriesRecord,
    _format_rows,
    _nearest_indices,
    _quantize,
    default_cycle_config,
    emit_csv,
    emit_plot_script,
    emit_sweep_csv,
    parse_config,
    read_csv_record,
    run_cycle,
    run_sweep,
    serialize_config,
    sweep_range_values,
)
from molcool.errors import SolverCrossCheckError, SolverError
from molcool.oracle import evolve_populations
from molcool.profiles import FrequencyProfile, ProfileShape
from molcool.solver import evolve_eta_closed_form, evolve_eta_ode
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
]


def python_csv_rows(rows) -> bytes:
    return "".join(",".join(f"{v:.11e}" for v in row) + "\n" for row in rows).encode()


def assert_formats_like_python(values):
    values = [float(v) for v in values]
    expected = np.array([float(f"{v:.11e}") for v in values])
    assert np.array_equal(_quantize(np.array(values)).view(np.uint64), expected.view(np.uint64))
    block = np.array(values).reshape(-1, 1)
    assert _format_rows(block) == "".join(f"{v:.11e}\n" for v in values).encode()
    if len(values) % 5 == 0:
        rows = np.array(values).reshape(-1, 5)
        assert _format_rows(rows) == python_csv_rows(rows.tolist())


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


SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)
NEAR_1E100 = st.floats(min_value=9.9e99, max_value=1.1e100)  # e+99 | e+100
NEAR_1E_MINUS_100 = st.floats(min_value=9.9e-101, max_value=1.1e-99)  # e-101 | e-100 | e-99
CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 9.999999999996e99, 9.999999999996e-100]),
    SUBNORMAL, NEAR_1E100, NEAR_1E_MINUS_100, st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, -x]))
# one of each in a single column, so a sign or exponent NUL that leaks
# into a neighbour shows in that column's rows
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
    out = _format_rows(np.array(rows))
    assert out == python_csv_rows(rows)
    assert b"\0" not in out


def test_cell_tables_match_python_format():
    assert molcool.cycle._QUAD.tolist() == [f"{i:04d}".encode() for i in range(10_000)]
    assert molcool.cycle._HEAD.tolist() == [
        f"{i // 1000}.{i % 1000:03d}".encode() for i in range(10_000)
    ]
    exponent = molcool.cycle._EXPONENT
    assert exponent.dtype == np.dtype("S5") and exponent.size == 1999
    cells = [exponent[i:i + 1].tobytes() for i in range(exponent.size)]
    exponents = range(-999, 1000)
    assert [c.replace(b"\0", b"") for c in cells] == [f"e{e:+03d}".encode() for e in exponents]
    # a two-digit exponent keeps a NUL where its hundreds digit would go
    assert [c.find(b"\0") for c in cells] == [2 if abs(e) < 100 else -1 for e in exponents]
    for table in (molcool.cycle._QUAD, molcool.cycle._HEAD, exponent):
        assert not table.flags.writeable


def test_dwell_csv_matches_python_format(tmp_path):
    # 28,001 rows in 14 blocks; s < 0 through the dwell, so one block
    # holds both signs in the s column and the rest hold one
    d = default_cycle_config().dimensionless
    record = run_cycle(CycleConfig(dimensionless=d, init_mode=FiniteDwell(dwell=3.0))).record
    n, block = len(record), molcool.cycle._CSV_BLOCK_ROWS
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
    with pytest.raises(ValueError, match="finite"):
        TimeSeriesRecord(
            s=[0.0, 1.0], omega_over_omega1=[1.0, np.inf], eta=[2.0, 2.0],
            mean_n=[1.0, 1.0], T_ratio=[1.0, 1.0],
        )


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


def test_empty_record_emits_header_only(tmp_path):
    empty = TimeSeriesRecord(s=[], omega_over_omega1=[], eta=[], mean_n=[], T_ratio=[])
    assert len(empty) == 0
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert len(read_csv_record(path)) == 0


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


# the full text of a cross-check failure, with the worst relative disagreement
RELATIVE_AT_S = r" by \d\.\d{3}e[+-]\d{2} relative at s = -?\d[\d.e+-]* "


def test_solver_cross_check_guards_coarse_steps(monkeypatch):
    # the routes on a 10-samples-per-unit grid, RK4 with one 0.1 substep each
    monkeypatch.setattr(
        molcool.cycle, "evolve_eta_closed_form",
        functools.partial(evolve_eta_closed_form, samples_per_unit=10),
    )
    monkeypatch.setattr(
        molcool.cycle, "evolve_eta_ode",
        functools.partial(evolve_eta_ode, samples_per_unit=10, step_size=0.1),
    )
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=10.0)
    shape = (
        "^solver cross-check failed: eta routes disagree"
        + RELATIVE_AT_S + r"\(allowed 1e-06\)$"
    )
    with pytest.raises(SolverCrossCheckError, match=shape):
        run_cycle(CycleConfig(dimensionless=d))


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


@pytest.mark.parametrize(
    "init_mode, bound_mb",
    # measured 4.18 and 5.14 MB; the same runs peaked at 5.78 and 7.39 MB
    # while every route segment and the whole fixed-step trajectory were kept
    [(ThermalClosed(), 4.5), (FiniteDwell(dwell=3.0), 5.5)],
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


class SerialExecutor:
    """A ThreadPoolExecutor stand-in that records the worker count it was
    asked for and maps in the calling thread, so no thread starts."""

    def __init__(self, asked, max_workers):
        asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, values):
        return map(fn, values)


def recording_executor(monkeypatch, cpus):
    """Worker counts asked of the sweep's executor, on `cpus` usable CPUs."""
    asked = []
    executor = functools.partial(SerialExecutor, asked)
    monkeypatch.setattr(molcool.cycle, "ThreadPoolExecutor", executor)
    monkeypatch.setattr(molcool.cycle, "_usable_cpus", lambda: cpus)
    return asked


def test_sweep_threads_are_capped_by_values_and_cpus(monkeypatch):
    # each submit can start a thread until max_workers exist, so an uncapped
    # pool would take as many threads as the caller asks for
    asked = recording_executor(monkeypatch, cpus=3)
    base = replace(default_cycle_config(), horizon=1.0)
    wide = SweepSpec(axis="gamma_tau_g", values=(0.5, 1.0, 2.0, 4.0, 8.0), base=base)
    narrow = SweepSpec(axis="gamma_tau_g", values=(0.5, 1.0), base=base)
    rows = run_sweep(wide, max_workers=1_000_000)
    assert run_sweep(narrow, max_workers=1_000_000) == rows[:2]
    assert asked == [3, 2]
    # on one usable CPU the sweep runs in the calling thread
    serial = recording_executor(monkeypatch, cpus=1)
    assert run_sweep(wide, max_workers=1_000_000) == rows
    assert serial == []


def test_sweep_workers_flag_is_capped(monkeypatch, capsys):
    # --workers has a lower bound only
    asked = recording_executor(monkeypatch, cpus=2)
    argv = ["sweep", "--axis", "theta0", "--values", "0.02,0.03,0.04", "--horizon", "1"]
    assert main(argv + ["--workers", "1000000"]) == 0
    assert asked == [2]
    assert capsys.readouterr().out.count("min T_ratio = ") == 3


def test_usable_cpus_counts_this_process():
    assert 1 <= molcool.cycle._usable_cpus() <= os.cpu_count()


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


def test_config_roundtrips_exactly():
    configs = [
        default_cycle_config(),
        CycleConfig(
            dimensionless=DimensionlessParams(theta0=0.1, freq_ratio_r=2.5, gamma_tau_g=0.3),
            profile=FrequencyProfile(
                shape=ProfileShape.PIECEWISE_LINEAR,
                duration=2.0,
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
    for cfg in configs:
        assert parse_config(serialize_config(cfg)) == cfg


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
    # keys of another shape are rejected, not kept where they would break the roundtrip
    with pytest.raises(ValueError, match="level applies to the constant shape only"):
        parse_config(good + "\n[profile]\nshape = sine-opening\nlevel = 0.3\n")
    with pytest.raises(ValueError, match="breakpoints apply to the piecewise-linear shape only"):
        parse_config(good + "\n[profile]\nshape = sine-opening\nbreakpoints = 0:1, 1:0.5\n")
    # a directory that would come back as another one is refused, not written
    for directory, read in (("runs/a #1", "runs/a"), (" runs/b", "runs/b")):
        with pytest.raises(ValueError, match=re.escape(f"output_dir {directory!r} would read back")):
            serialize_config(replace(default_cycle_config(), output_dir=directory))
        assert parse_config(good + f"\n[output]\ndirectory = {directory}\n").output_dir == read


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
