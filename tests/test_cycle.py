"""Tests for cycle orchestration, sweeps, CSV/plot emission, and config files."""

import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcool.cycle import (
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    CycleConfig,
    FiniteDwell,
    SweepRow,
    SweepSpec,
    ThermalClosed,
    TimeSeriesRecord,
    _format_rows,
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
from molcool.errors import SolverCrossCheckError
from molcool.profiles import FrequencyProfile, ProfileShape
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


def assert_formats_like_python(values):
    values = [float(v) for v in values]
    expected = np.array([float(f"{v:.11e}") for v in values])
    assert np.array_equal(_quantize(np.array(values)).view(np.uint64), expected.view(np.uint64))
    block = np.array(values).reshape(-1, 1)
    assert _format_rows(block) == "".join(f"{v:.11e}\n" for v in values).encode()
    if len(values) % 5 == 0:
        rows = np.array(values).reshape(-1, 5)
        lines = "".join(",".join(f"{v:.11e}" for v in row) + "\n" for row in rows.tolist())
        assert _format_rows(rows) == lines.encode()


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


def test_solver_cross_check_guards_coarse_steps():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=10.0)
    with pytest.raises(SolverCrossCheckError, match="solver cross-check failed"):
        run_cycle(CycleConfig(dimensionless=d), samples_per_unit=10, ode_step=0.1)


def test_oracle_cross_check_runs():
    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    cfg = CycleConfig(dimensionless=d, horizon=3.0, with_oracle=True)
    res = run_cycle(cfg, samples_per_unit=500, oracle_samples_per_unit=50)
    assert res.oracle is not None
    assert res.oracle.method == "bdf"
    assert res.oracle.s[-1] == 3.0
    # mean occupation and the eta route describe one distribution
    idx = np.searchsorted(res.trajectory.s, res.oracle.s)
    rel = np.abs((res.oracle.mean_n + 1.0) / res.trajectory.eta[idx] - 1.0)
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


def test_cycle_config_validation():
    dims = default_cycle_config().dimensionless
    with pytest.raises(ValueError, match="cover at least the opening"):
        CycleConfig(dimensionless=dims, horizon=0.5)
    with pytest.raises(ValueError, match="does not match"):
        CycleConfig(dimensionless=dims, profile=FrequencyProfile(freq_ratio_r=3.0))
    with pytest.raises(ValueError, match="unsupported output format"):
        CycleConfig(dimensionless=dims, output_format="json")
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


def test_sweep_worker_count_is_immaterial():
    spec = SweepSpec(
        axis="gamma_tau_g", values=(0.5, 1.0, 2.0), base=default_cycle_config()
    )
    assert run_sweep(spec, max_workers=1) == run_sweep(spec, max_workers=3)


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
    res = run_cycle(
        CycleConfig(dimensionless=base, init_mode=FiniteDwell(dwell=1.0)),
        samples_per_unit=200,
    )
    script = tmp_path / "cycle_plot.py"
    emit_plot_script(res.record, script)
    assert "extension mode" in script.read_text()


def test_config_roundtrips_exactly():
    configs = [
        default_cycle_config(),
        CycleConfig(
            dimensionless=DimensionlessParams(theta0=0.1, freq_ratio_r=2.5, gamma_tau_g=0.3),
            profile=FrequencyProfile(
                freq_ratio_r=2.5,
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
            dimensionless=DimensionlessParams(theta0=0.05, freq_ratio_r=1.0, gamma_tau_g=2.0),
            profile=FrequencyProfile(
                freq_ratio_r=1.0, shape=ProfileShape.CONSTANT, level=0.75
            ),
        ),
    ]
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
    with pytest.raises(ValueError, match="finite-dwell"):
        parse_config(good.replace("init_mode = thermal-closed", "init_mode = thermal-closed\ndwell = 2"))
    with pytest.raises(ValueError, match="s:omega form"):
        parse_config(
            good
            + "\n[profile]\nshape = piecewise-linear\nduration = 1.0\nbreakpoints = 0.0;1.0\n"
        )
    with pytest.raises(ValueError, match="malformed config"):
        parse_config("not an ini file at all [")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
