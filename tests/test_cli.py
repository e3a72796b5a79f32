"""End-to-end tests of the command-line interface (in-process unless noted)."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molcool.cli import _load_config, build_parser, main
from molcool.cycle import (
    CycleConfig,
    FiniteDwell,
    _fmt,
    default_cycle_config,
    parse_config,
    run_cycle,
    serialize_config,
)
from molcool.errors import SolverCrossCheckError
from molcool.profiles import FrequencyProfile, ProfileShape
from molcool.units import AdiabaticityWarning, DimensionlessParams


def run_cli(*argv):
    return main(list(argv))


def test_cycle_defaults(capsys):
    rc = run_cli("cycle")
    out = capsys.readouterr().out
    assert rc == 0
    assert "min T_ratio = 6.67407478804e-01 at s = 7.82000000000e-01" in out
    assert "recovery to 0.997 at s = 5.60637887958e+00" in out
    assert "final eta = 3.17515083541e+01" in out


def test_cycle_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = run_cli("cycle", "--horizon", "2", "--out", str(out_dir))
    out = capsys.readouterr().out
    assert rc == 0
    assert (out_dir / "cycle.csv").exists()
    assert (out_dir / "cycle_plot.py").exists()
    assert f"wrote {out_dir / 'cycle.csv'}" in out


def test_cycle_with_oracle(capsys):
    rc = run_cli("cycle", "--theta0", "0.3", "--horizon", "2", "--with-oracle")
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle cross-check passed" in out


def test_reproduce_fig4_passes(capsys):
    rc = run_cli("reproduce-fig4")
    out = capsys.readouterr().out
    assert rc == 0
    assert "min T_ratio = 6.67407478804e-01 (expected 0.65 +/- 0.05): PASS" in out
    assert "recovery to 0.997 at s = 5.60637887958e+00 (expected 6.0 +/- 1.0): PASS" in out


def test_reproduce_fig4_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("reproduce-fig4", "--out", str(a)) == 0
    assert run_cli("reproduce-fig4", "--out", str(b)) == 0
    assert (a / "cycle.csv").read_bytes() == (b / "cycle.csv").read_bytes()


def test_reproduce_fig4_fails_on_moved_anchor(monkeypatch, capsys):
    monkeypatch.setattr("molcool.cli.REFERENCE_MIN_T_RATIO", (0.9, 0.001))
    rc = run_cli("reproduce-fig4")
    out = capsys.readouterr().out
    assert rc == 1
    assert "(expected 0.9 +/- 0.001): FAIL" in out


def test_sweep_values(capsys):
    rc = run_cli(
        "sweep", "--axis", "gamma-tau", "--values", "0.5,1", "--horizon", "3"
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "gamma_tau_g = 5.00000000000e-01: min T_ratio = " in out
    assert "gamma_tau_g = 1.00000000000e+00: min T_ratio = " in out


def test_sweep_log_range(capsys):
    rc = run_cli(
        "sweep", "--axis", "theta0", "--range", "0.01:1:3:log", "--horizon", "2"
    )
    out = capsys.readouterr().out
    assert rc == 0
    for value in ("1.00000000000e-02", "1.00000000000e-01", "1.00000000000e+00"):
        assert f"theta0 = {value}: min T_ratio = " in out


def test_sweep_worker_count_is_immaterial(tmp_path):
    args = ("sweep", "--axis", "ratio", "--values", "1.5,2", "--horizon", "3")
    assert run_cli(*args, "--workers", "1", "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--workers", "4", "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()
    assert (tmp_path / "a/sweep_plot.py").exists()


@pytest.mark.filterwarnings("ignore::molcool.thermo.OccupationUnderflow")
def test_sweep_reports_failed_rows_and_continues(capsys):
    rc = run_cli(
        "sweep", "--axis", "theta0", "--values", "0.032,800", "--horizon", "2"
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "theta0 = 3.20000000000e-02: min T_ratio = " in captured.out
    assert "theta0 = 8.00000000000e+02: failed: ValueError: eta0 must exceed 1" in captured.err


def test_convert_units_to_si(capsys):
    rc = run_cli(
        "convert-units", "--theta0", "0.032", "--ratio", "2", "--gamma-tau", "1",
        "--temperature-kelvin", "300",
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "omega0 = 1.25683525639e+12 rad/s" in out
    assert "omega1 = 2.51367051278e+12 rad/s" in out
    assert "tau_osc = 4.99921153169e-12 s" in out
    assert "tau_osc_prime = 2.49960576585e-12 s" in out


def test_convert_units_to_dimensionless(capsys):
    with pytest.warns(AdiabaticityWarning):
        rc = run_cli(
            "convert-units", "--temperature-kelvin", "300", "--mass", "1e-21",
            "--spring", "1.0", "--coupling-max", "1.5", "--gamma", "1e10",
            "--tau-open", "1e-10",
        )
    out = capsys.readouterr().out
    assert rc == 0
    assert "theta0 = 8.05140408108e-04" in out
    assert "freq_ratio_r = 2.00000000000e+00" in out
    assert "gamma_tau_g = 1.00000000000e+00" in out
    assert "total_mass = 2.00000000000e-21 kg" in out
    assert "kappa_rel = 5.00000000000e-01 N/m" in out


def test_convert_units_missing_flags(capsys):
    rc = run_cli("convert-units", "--temperature-kelvin", "300", "--theta0", "0.032")
    err = capsys.readouterr().err
    assert rc == 2
    assert "needs --ratio, --gamma-tau" in err


def test_convert_units_conflicting_flags(capsys):
    rc = run_cli(
        "convert-units", "--temperature-kelvin", "300", "--mass", "1e-21",
        "--spring", "1.0", "--coupling-max", "1.5", "--gamma", "1e10",
        "--tau-open", "1e-10", "--theta0", "0.03",
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "--theta0 conflicts" in err
    # the dimensionless -> SI direction takes no SI rate or coupling either
    dimensionless = (
        "convert-units", "--theta0", "0.032", "--ratio", "2", "--gamma-tau", "1",
        "--temperature-kelvin", "300",
    )
    for flag, value in (("--gamma", "5"), ("--coupling-max", "3")):
        assert run_cli(*dimensionless, flag, value) == 2
        err = capsys.readouterr().err
        assert f"{flag} conflicts with the dimensionless -> SI direction" in err


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = default_cycle_config()
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg).replace("theta0 = 0.032", "theta0 = 0.1"))
    rc = run_cli("cycle", "--config", str(path), "--theta0", "0.032")
    override_out = capsys.readouterr().out
    assert rc == 0
    assert run_cli("cycle") == 0
    assert capsys.readouterr().out == override_out


def test_restated_init_mode_keeps_the_file_dwell(tmp_path, capsys):
    cfg = replace(default_cycle_config(), init_mode=FiniteDwell(dwell=3.0))
    path = tmp_path / "dwell.ini"
    path.write_text(serialize_config(cfg))
    for command in (("cycle",), ("sweep", "--axis", "theta0", "--values", "0.032")):
        assert run_cli(*command, "--config", str(path)) == 0
        from_file = capsys.readouterr().out
        assert "min T_ratio = 6.75191091365e-01" in from_file
        assert run_cli(*command, "--config", str(path), "--init-mode", "finite-dwell") == 0
        assert capsys.readouterr().out == from_file
    # another mode name replaces the file's mode, dwell and all
    assert run_cli("cycle", "--config", str(path), "--init-mode", "thermal-closed") == 0
    thermal_closed = capsys.readouterr().out
    assert run_cli("cycle") == 0
    assert capsys.readouterr().out == thermal_closed


def test_config_values_are_read_literally(tmp_path, capsys):
    out_dir = tmp_path / "runs 100%"
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(replace(default_cycle_config(), output_dir=str(out_dir))))
    assert run_cli("cycle", "--config", str(path), "--horizon", "2") == 0
    assert f"wrote {out_dir / 'cycle.csv'}" in capsys.readouterr().out
    assert (out_dir / "cycle.csv").exists()


FLAG_OF = {
    "theta0": "--theta0", "freq_ratio_r": "--ratio", "gamma_tau_g": "--gamma-tau",
    "horizon": "--horizon", "init_mode": "--init-mode", "dwell": "--dwell",
}


DIMENSIONLESS_KEYS = {
    "theta0": st.floats(min_value=1e-4, max_value=10.0),
    "freq_ratio_r": st.floats(min_value=1.0, max_value=10.0),
    "gamma_tau_g": st.floats(min_value=0.0, max_value=100.0),
}
RUN_KEYS = {
    "horizon": st.floats(min_value=1.0, max_value=100.0),
    "with_oracle": st.booleans(),
    "init_mode": st.sampled_from(["thermal-closed", "finite-dwell"]),
    "dwell": st.floats(min_value=0.0, max_value=10.0),
}


@st.composite
def config_keys(draw):
    """Every dimensionless key, and each [run] key or not."""
    keys = {key: draw(strategy) for key, strategy in DIMENSIONLESS_KEYS.items()}
    for key, strategy in RUN_KEYS.items():
        value = draw(st.none() | strategy)
        if value is not None:
            keys[key] = value
    return keys


def config_text(keys):
    lines = ["[dimensionless]"] + [f"{key} = {keys[key]!r}" for key in DIMENSIONLESS_KEYS]
    lines.append("[run]")
    for key, value in keys.items():
        if key in RUN_KEYS:
            lines.append(f"{key} = {str(value).lower() if key == 'with_oracle' else value}")
    return "\n".join(lines) + "\n"


def flags(keys):
    argv = []
    for key, value in keys.items():
        if key == "with_oracle":
            argv += ["--with-oracle"] if value else []
        else:
            argv += [FLAG_OF[key], str(value)]
    return argv


def load_or_refuse(load, *args):
    """The config `load` builds, or the text of the ValueError it raises."""
    try:
        return load(*args)
    except ValueError as exc:
        return f"refused: {exc}"


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(keys=config_keys(), restate=st.data())
def test_flags_and_file_agree(tmp_path, keys, restate):
    parser = build_parser()
    # flags on the default config build what a file with the same keys does
    from_file = load_or_refuse(parse_config, config_text(keys))
    from_flags = load_or_refuse(_load_config, parser.parse_args(["cycle", *flags(keys)]))
    assert from_flags == from_file
    if isinstance(from_file, str):
        return
    # flags that restate some of a file's keys leave its config as it is
    path = tmp_path / "run.ini"
    path.write_text(config_text(keys))
    subset = {k: v for k, v in keys.items() if restate.draw(st.booleans(), label=k)}
    argv = ["cycle", "--config", str(path), *flags(subset)]
    assert _load_config(parser.parse_args(argv)) == from_file


def test_ratio_flag_moves_the_config_profile(tmp_path, capsys):
    # --ratio replaces the config's r, and the config's profile runs at it
    dims = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
    profile = FrequencyProfile(
        shape=ProfileShape.PIECEWISE_LINEAR,
        breakpoints=((0.0, 1.0), (1.0, 0.5)),
    )
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(CycleConfig(dimensionless=dims, profile=profile)))
    rc = run_cli("cycle", "--config", str(path), "--ratio", "3", "--horizon", "2")
    out = capsys.readouterr().out
    assert rc == 0
    expected = run_cycle(
        CycleConfig(
            dimensionless=replace(dims, freq_ratio_r=3.0), profile=profile, horizon=2.0
        )
    ).summary
    assert f"min T_ratio = {_fmt(expected.min_t_ratio)} at s = {_fmt(expected.argmin_s)}" in out
    assert f"final eta = {_fmt(expected.final_eta)}" in out


def test_sweep_runs_in_the_calling_thread_by_default(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr("molcool.cycle.ThreadPoolExecutor", no_pool)
    assert run_cli("sweep", "--axis", "gamma-tau", "--values", "0.5,1", "--horizon", "2") == 0


def test_short_dwell_runs_with_the_oracle(capsys):
    # a dwell shorter than one sample interval of either grid is one interval
    args = ("cycle", "--init-mode", "finite-dwell", "--horizon", "2", "--with-oracle")
    assert run_cli(*args, "--dwell", "0.001") == 0
    assert "oracle cross-check passed" in capsys.readouterr().out
    # one too short to move the close's start off s = -1 is no dwell at all
    assert run_cli(*args, "--dwell", "1e-17") == 0
    no_dwell = capsys.readouterr().out
    assert run_cli(*args, "--dwell", "0") == 0
    assert capsys.readouterr().out == no_dwell


def test_validation_exit_codes(tmp_path, capsys):
    assert run_cli("cycle", "--ratio", "0.5") == 2
    assert "freq_ratio_r" in capsys.readouterr().err
    assert run_cli("sweep", "--axis", "theta0", "--values", "a,b") == 2
    capsys.readouterr()
    # one dwell rule, and one message, for flags and file
    stray_dwell = tmp_path / "dwell.ini"
    stray_dwell.write_text(
        serialize_config(default_cycle_config()).replace("horizon = ", "dwell = 3\nhorizon = ")
    )
    for argv in (
        ("--dwell", "2"),
        ("--init-mode", "thermal-closed", "--dwell", "3"),
        ("--config", str(stray_dwell)),
    ):
        assert run_cli("cycle", *argv) == 2
        assert capsys.readouterr().err == "error: dwell applies to init_mode finite-dwell only\n"
    bad = tmp_path / "bad.ini"
    bad.write_text(
        serialize_config(default_cycle_config()).replace("horizon = ", "speed = 9\nhorizon = ")
    )
    assert run_cli("cycle", "--config", str(bad)) == 2
    assert "unknown key" in capsys.readouterr().err
    assert run_cli("sweep", "--axis", "theta0", "--range", "1:2") == 2
    assert "min:max:count" in capsys.readouterr().err
    assert run_cli("sweep", "--axis", "theta0", "--range", "0.01:1:2.5") == 2
    assert "--range count must be a whole number, got '2.5'" in capsys.readouterr().err
    assert run_cli("sweep", "--axis", "theta0", "--range", "0.01:1:-3") == 2
    assert "--range '0.01:1:-3': count must be >= 1, got -3" in capsys.readouterr().err
    assert run_cli("sweep", "--axis", "theta0", "--range", "a:1:3") == 2
    assert "--range 'a:1:3': could not convert string to float: 'a'" in capsys.readouterr().err
    for workers in ("0", "-3"):
        assert run_cli("sweep", "--axis", "theta0", "--values", "0.03", "--workers", workers) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


def test_over_stiff_coupling_fails_fast():
    # a separate process, so a hang is caught by the timeout instead of
    # stalling the suite
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "molcool.cli", "cycle", "--gamma-tau", "3e4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "did not converge on s in [" in proc.stderr


def test_oversized_grid_is_refused_before_any_route_allocates(capsys):
    # horizon 1e5 is a 2e9-point RK4 stage grid, which the step guard
    # refuses; the kernel route, which runs first, would have asked for
    # ~28 GB of its 2e8 samples before that guard was reached
    tracemalloc.start()
    try:
        assert run_cli("cycle", "--horizon", "1e5") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "exceed memory limits" in capsys.readouterr().err
    assert peak < 1_000_000


def test_oversized_oracle_ladder_is_refused(monkeypatch, capsys):
    # theta0 = 1e-6 needs a ladder of 4e7 levels, ~30 GB at its peak; it is
    # refused from the plan, before either eta route runs its 6e6 samples
    def refuse(*args, **kwargs):
        raise AssertionError("an eta route ran before the ladder was sized")

    monkeypatch.setattr("molcool.cycle.evolve_eta_closed_form", refuse)
    monkeypatch.setattr("molcool.cycle.evolve_eta_ode", refuse)
    assert run_cli("cycle", "--theta0", "1e-6", "--with-oracle", "--horizon", "3000") == 2
    assert "a ladder of 40000002 levels would exceed memory limits" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::molcool.thermo.OccupationUnderflow")
@pytest.mark.parametrize("theta0", ["14", "18", "20", "400"])
def test_ground_state_start_is_refused_before_any_route(monkeypatch, capsys, theta0):
    # at r = 2, theta0 >= ~13.8 starts within 1e-12 of eta = 1, which the
    # record's first sample would refuse; it is refused before anything runs
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran before the start state was checked")

    for route in ("evolve_eta_closed_form", "evolve_eta_ode", "ladder_levels",
                  "populations_from_quenched"):
        monkeypatch.setattr(f"molcool.cycle.{route}", refuse)
    assert run_cli("cycle", "--theta0", theta0) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: eta0 must exceed 1 + 1e-12 (the ground-state limit), got 1.0")
    assert run_cli("cycle", "--theta0", theta0, "--with-oracle") == 2
    assert capsys.readouterr().err.splitlines()[-1] == err


def test_start_just_above_the_ground_state_answers(capsys):
    assert run_cli("cycle", "--theta0", "13") == 0
    assert "min T_ratio = 8.51771449869e-01" in capsys.readouterr().out


def test_oversized_sweep_range_is_refused_before_allocation(capsys):
    # 1e9 values would take ~41 GB as a tuple of floats
    tracemalloc.start()
    try:
        assert run_cli("sweep", "--axis", "theta0", "--range", "0.01:1:1000000000") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "a sweep of 1000000000 values would exceed memory limits (1000000 allowed)" in err
    assert peak < 1_000_000


def test_io_exit_codes(tmp_path, capsys):
    assert run_cli("cycle", "--config", str(tmp_path / "missing.ini")) == 4
    assert "missing.ini" in capsys.readouterr().err
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    assert run_cli("cycle", "--horizon", "2", "--out", str(blocker)) == 4


def test_cross_check_exit_code(monkeypatch, capsys):
    def explode(cfg):
        raise SolverCrossCheckError("solver cross-check failed: synthetic")

    monkeypatch.setattr("molcool.cli.run_cycle", explode)
    rc = run_cli("cycle")
    assert rc == 3
    assert "solver cross-check failed" in capsys.readouterr().err


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("sweep", "--values", "1,2")
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        run_cli("no-such-command")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
