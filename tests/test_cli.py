"""End-to-end tests of the command-line interface (in-process unless noted)."""

import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpus_digest import CLI_ARGVS, cli_call
from molcool import cli
from molcool.cli import _load_config, build_parser, main
from molcool.cycle import (
    _INIT_MODES,
    CycleConfig,
    FiniteDwell,
    _plan_segments,
    default_cycle_config,
    run_cycle,
)
from molcool.errors import SolverCrossCheckError
from molcool.files import _CONFIG_KEYS, parse_config, serialize_config
from molcool.profiles import FrequencyProfile, ProfileShape, omega_at
from molcool.record import _fmt
from molcool.thermo import OccupationUnderflow
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


@pytest.fixture
def no_thread(monkeypatch):
    """Fail the test if anything starts a thread."""

    def start(self):
        raise AssertionError(f"thread {self.name} was started")

    monkeypatch.setattr(threading.Thread, "start", start)


def test_sweep_runs_in_the_calling_thread_by_default(no_thread, capsys):
    assert run_cli("sweep", "--axis", "gamma-tau", "--values", "0.5,1", "--horizon", "2") == 0


def test_sweep_starts_no_thread_at_any_worker_count(no_thread, capsys):
    argv = ("sweep", "--axis", "gamma-tau", "--values", "0.5,1", "--horizon", "2")
    assert run_cli(*argv, "--workers", "4") == 0
    assert capsys.readouterr().out.count("min T_ratio = ") == 2


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


def test_sweep_values_error_names_its_flag(capsys):
    # as --range does: the message says which flag held the bad number
    assert run_cli("sweep", "--axis", "theta0", "--values", "a,b") == 2
    assert capsys.readouterr().err == (
        "error: --values 'a,b': could not convert string to float: 'a'\n"
    )
    assert run_cli("sweep", "--axis", "theta0", "--values", ",") == 2
    assert capsys.readouterr().err == "error: --values must list at least one number\n"


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
    # g D = 3e4 / 2000 per sample interval is past what the kernel's rule resolves
    assert proc.stderr.startswith(
        "error: coupling too stiff for the kernel quadrature: g D = 15 per sample interval"
    )


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
    err = capsys.readouterr().err
    assert "(horizon 100000 at step 0.0001) would exceed memory limits" in err
    assert "step-size underflow" not in err
    assert peak < 1_000_000


def test_oversized_oracle_ladder_is_refused(monkeypatch, capsys):
    # theta0 = 1e-6 needs a ladder of 4e7 levels, ~30 GB at its peak; it is
    # refused from the plan, before either eta route runs its 6e6 samples
    def refuse(*args, **kwargs):
        raise AssertionError("an eta route ran before the ladder was sized")

    monkeypatch.setattr("molcool.cycle.evolve_eta_closed_form", refuse)
    monkeypatch.setattr("molcool.cycle.evolve_eta_ode", refuse)
    assert run_cli("cycle", "--theta0", "1e-6", "--with-oracle", "--horizon", "3000") == 2
    assert "a ladder of 4e+07 levels would exceed memory limits" in capsys.readouterr().err


def test_over_stiff_oracle_run_is_refused_before_any_grid_or_ladder(monkeypatch, capsys):
    # g D = 1e4 / 2000 = 5 per sample interval is refused from the plan,
    # before the ladder of ~4e5 levels or either route's 6e6 samples
    refuse_calls(monkeypatch, "evolve_eta_closed_form", "evolve_eta_ode", "truncation_levels",
                 "populations_from_quenched")
    argv = ("--with-oracle", "--theta0", "1e-4", "--gamma-tau", "1e4", "--horizon", "3000")
    tracemalloc.start()
    try:
        assert run_cli("cycle", *argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith(
        "error: coupling too stiff for the kernel quadrature: g D = 5 per sample interval"
    )
    assert peak < 1_000_000


# inputs at the edge of double precision, each refused before any route runs:
# a ladder count that overflows, two counts too long to print in full, and
# occupations that overflow at the start or at the opening's end
EXTREME_INPUTS = {
    "ladder count overflows": ("--theta0 2e-307 --with-oracle --horizon 2", "a ladder of inf "),
    "ladder of 4e+201 levels": ("--theta0 1e-200 --with-oracle", "a ladder of 4e+201 levels "),
    "stage grid of 2e+304 points": (
        "--init-mode finite-dwell --dwell 1e300", "a substep grid of 2e+304 points "
    ),
    "infinite start": ("--theta0 1e-320", "eta0 = inf and the forcing g (nu + 1) = inf "),
    "infinite occupation": ("--theta0 5e-309", "eta0 = 1e+308 and the forcing g (nu + 1) = inf "),
    "infinite occupation, oracle": (
        "--theta0 5e-309 --with-oracle", "eta0 = 1e+308 and the forcing g (nu + 1) = inf "
    ),
    # a forcing past half of float max overflows the kernel rule's node-pair sums
    "forcing past half of float max": (
        "--theta0 1e-308", "eta0 = 5e+307 and the forcing g (nu + 1) = 1e+308 "
    ),
    # horizon x samples per unit overflows a float
    "sample grid of inf intervals": ("--horizon 1e306", "a sample grid of inf intervals "),
    "dwell of inf intervals": (
        "--init-mode finite-dwell --dwell 1e306", "a sample grid of inf intervals "
    ),
    # theta0 r overflows, and the opening's omega 1 + (1/r - 1) rounds to 0
    "closed splitting past float range": (
        "--ratio 1.7e308 --theta0 2 --init-mode finite-dwell --dwell 1",
        "the closed splitting theta0 r = 2 x 1.7e+308 is past float range",
    ),
}


def refuse_calls(monkeypatch, *names):
    """Make each of `names`, as `molcool.cycle` calls it, fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran before the start state was checked")

    for name in names:
        monkeypatch.setattr(f"molcool.cycle.{name}", refuse)


@pytest.mark.parametrize("name", EXTREME_INPUTS)
def test_extreme_inputs_exit_2_with_one_readable_line(name, capsys, monkeypatch):
    # under the repo's warning filters, which raise numpy's overflow
    # warnings as errors; any other warning shown is recorded.  Every
    # input is refused before a route runs or a ladder is built
    argv, message = EXTREME_INPUTS[name]
    refuse_calls(monkeypatch, "evolve_eta_closed_form", "evolve_eta_ode",
                 "populations_from_quenched")
    with warnings.catch_warnings(record=True) as shown:
        assert run_cli("cycle", *argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert len(err) < 200 and "Traceback" not in err
    assert not [w for w in shown if issubclass(w.category, RuntimeWarning)]


NEAR_FLOAT_MAX_FORCING = {
    "--theta0 3e-308": (
        "min T_ratio = 6.67399546421e-01 at s = 7.82000000000e-01\n"
        "recovery to 0.997 at s = 5.60644808198e+00\n"
        "final eta = 3.33320976572e+307\n"
    ),
    "--theta0 1e-307": (
        "min T_ratio = 6.67399546421e-01 at s = 7.82000000000e-01\n"
        "recovery to 0.997 at s = 5.60644808198e+00\n"
        "final eta = 9.99962929717e+306\n"
    ),
    "--theta0 1e-308 --gamma-tau 0.5": (
        "min T_ratio = 6.02177322349e-01 at s = 8.62000000000e-01\n"
        "recovery to 0.997 not reached within horizon 10.0\n"
        "final eta = 9.95726861431e+307\n"
    ),
}


@pytest.mark.parametrize("argv", NEAR_FLOAT_MAX_FORCING)
def test_forcing_up_to_half_of_float_max_still_answers(capsys, argv):
    # each forcing g (nu + 1) is at most float max / 2: the run answers as before
    with warnings.catch_warnings(record=True) as shown:
        assert run_cli("cycle", *argv.split()) == 0
    assert capsys.readouterr().out == NEAR_FLOAT_MAX_FORCING[argv]
    assert not [w for w in shown if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("theta0", ["1e-12", "1e-3", "0.032"])
@pytest.mark.parametrize("gamma_tau", ["1e-310", "1e-315", "1e-320", "5e-324"])
def test_subnormal_coupling_answers_as_no_coupling(gamma_tau, theta0, capsys):
    # a subnormal g D is far inside the kernel rule's bound, and nothing
    # divides by it; every warning is an error, as under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("cycle", "--gamma-tau", "0", "--theta0", theta0) == 0
        uncoupled = capsys.readouterr().out
        assert run_cli("cycle", "--gamma-tau", gamma_tau, "--theta0", theta0) == 0
    assert capsys.readouterr().out == uncoupled


# the edge values each fuzzed `cycle` flag is drawn from; a horizon or
# dwell of 700 or more stands for one past float range, 1e306, so that
# no fuzzed run allocates much
EDGE_POOL = ("0", "-0", "5e-324", "1e-320", "1e-300", "1e-12", "0.5", "1", "1.0000001", "2",
             "13.8", "40", "700", "1e5", "1e300", "inf", "nan")
EDGE_FLAG = st.none() | st.sampled_from(EDGE_POOL)
DOCUMENTED_WARNINGS = (OccupationUnderflow, AdiabaticityWarning)


def run_length(value: str) -> str:
    return "1e306" if float(value) >= 700.0 else value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(theta0=EDGE_FLAG, ratio=EDGE_FLAG, gamma_tau=EDGE_FLAG, horizon=EDGE_FLAG,
       dwell=EDGE_FLAG, oracle=st.booleans())
@example(theta0="1e-12", ratio=None, gamma_tau="5e-324", horizon=None, dwell=None, oracle=False)
@example(theta0="1e-300", ratio="1.0000001", gamma_tau="5e-324", horizon="1.0000001",
         dwell=None, oracle=False)
def test_cycle_answers_or_exits_2_on_edge_values(theta0, ratio, gamma_tau, horizon, dwell,
                                                 oracle):
    argv = ["cycle"]
    for flag, value in (("theta0", theta0), ("ratio", ratio), ("gamma-tau", gamma_tau),
                        ("horizon", horizon and run_length(horizon))):
        if value is not None:
            argv.append(f"--{flag}={value}")
    if dwell is not None:
        argv += ["--init-mode=finite-dwell", f"--dwell={run_length(dwell)}"]
    if oracle:
        argv.append("--with-oracle")
    assert_answers_or_exits_2(argv)


def assert_answers_or_exits_2(argv, failed_row=None, documented=DOCUMENTED_WARNINGS):
    """The input contract for `main(argv)`: exit 0 with no inf or nan in
    the answer and nothing on stderr but lines that `failed_row` matches,
    or exit 2 with exactly one "error:" line; no traceback, and no warning
    but the `documented` ones."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out.getvalue()), argv
        lines = err.getvalue().splitlines()
        assert failed_row is not None or not lines, argv
        assert all(failed_row.match(line) for line in lines), argv
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    assert not [w for w in shown if not issubclass(w.category, documented)], argv


EDGE_VALUE = st.sampled_from(EDGE_POOL)
# a sweep row that failed: its axis, its value and "failed:", then the refusal
FAILED_ROW = re.compile(r"(theta0|freq_ratio_r|gamma_tau_g) = \S+: failed: \S")


@st.composite
def sweep_argv(draw):
    """`sweep` over any axis, by 1-3 edge values or a range between two of
    them, at any worker count the flag parses and any edge horizon."""
    argv = ["sweep", f"--axis={draw(st.sampled_from(['theta0', 'ratio', 'gamma-tau']))}",
            f"--workers={draw(st.sampled_from([-1, 0, 1, 2]))}"]
    if draw(st.booleans()):
        argv.append("--values=" + ",".join(draw(st.lists(EDGE_VALUE, min_size=1, max_size=3))))
    else:
        spacing = draw(st.sampled_from(["", ":log"]))
        argv.append(f"--range={draw(EDGE_VALUE)}:{draw(EDGE_VALUE)}:{draw(st.integers(1, 3))}"
                    + spacing)
    horizon = draw(EDGE_FLAG)
    if horizon is not None:
        argv.append(f"--horizon={run_length(horizon)}")
    return argv


@st.composite
def convert_argv(draw):
    """`convert-units` in either direction, its temperature and the
    direction's own flags each absent or an edge value (the SI direction
    is chosen by giving --spring)."""
    argv = ["convert-units", f"--temperature-kelvin={draw(EDGE_VALUE)}"]
    if draw(st.booleans()):
        flags = ("theta0", "ratio", "gamma-tau", "mass", "tau-open")
    else:
        argv.append(f"--spring={draw(EDGE_VALUE)}")
        flags = ("mass", "coupling-max", "gamma", "tau-open")
    for flag in flags:
        value = draw(st.sampled_from((None, *EDGE_POOL)))
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv


def convert(temperature, *flags):
    return ["convert-units", f"--temperature-kelvin={temperature}", *flags]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=sweep_argv() | convert_argv())
# an omega0 of 0 (theta0 k_B T underflows), a square past float range, and
# an omega1 past it, from dimensionless to SI
@example(convert("5e-324", "--theta0=5e-324", "--ratio=1", "--gamma-tau=0"))
@example(convert("5e-324", "--theta0=1e300", "--ratio=1e300", "--gamma-tau=5e-324"))
@example(convert("13.8", "--theta0=0.5", "--ratio=1e300", "--gamma-tau=0"))
# k_B T and omega0 of 0, from SI to dimensionless
@example(convert("5e-324", "--spring=1", "--mass=700", "--coupling-max=0", "--gamma=1",
                 "--tau-open=1"))
@example(convert("2", "--spring=1e-320", "--mass=1e300", "--coupling-max=13.8", "--gamma=40",
                 "--tau-open=1e-300"))
def test_sweep_and_convert_units_answer_or_exit_2_on_edge_values(argv):
    # a sweep answers with a refused run's row on stderr; argparse's own
    # usage errors (a missing required flag) are test_argparse_usage_errors'
    assert_answers_or_exits_2(argv, FAILED_ROW if argv[0] == "sweep" else None)


# what a fuzzed config key takes three times in four, and an edge value
# otherwise: the names it knows, or the reference cycle's value (horizon
# 2, to keep runs short)
CONFIG_NAMES = {
    "theta0": ["0.032"], "freq_ratio_r": ["2"], "gamma_tau_g": ["1"],
    "shape": [shape.value for shape in ProfileShape], "duration": ["1"], "level": ["0.5"],
    "init_mode": list(_INIT_MODES), "dwell": ["1"], "horizon": ["2"],
    "with_oracle": ["true", "false"], "format": ["csv"],
}


@st.composite
def config_file(draw):
    """INI text over `_CONFIG_KEYS`: every [dimensionless] key, and each
    other section and each of its keys or not, from `CONFIG_NAMES` or the
    edge pool (a horizon or dwell >= 700 as 1e306); breakpoints are edge
    values, their times ascending from 0, and the output directory is "{out}"."""
    lines = []
    for section, keys in _CONFIG_KEYS.items():
        if section != "dimensionless" and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key in keys:
            if section != "dimensionless" and not draw(st.booleans()):
                continue
            if key == "breakpoints":
                times = sorted(draw(st.lists(EDGE_VALUE, min_size=1, max_size=2)), key=float)
                levels = draw(st.lists(EDGE_VALUE, min_size=len(times) + 1,
                                       max_size=len(times) + 1))
                value = ", ".join(f"{t}:{w}" for t, w in zip(["0", *times], levels))
            elif key == "directory":
                value = "{out}"
            else:
                edge = draw(st.integers(0, 3)) == 0
                value = draw(EDGE_VALUE if edge else st.sampled_from(CONFIG_NAMES[key]))
                value = run_length(value) if key in ("horizon", "dwell") else value
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def reaches_underflow(text):
    """Whether the run a config file describes reaches a theta past 700,
    where the occupation underflows and `OccupationUnderflow` is warned:
    at either start splitting, or at a segment's start, kinks or end,
    between which omega is monotone (`FrequencyProfile.kinks`)."""
    try:
        cfg = parse_config(text)
    except ValueError:
        return False
    d = cfg.dimensionless
    closed = d.theta0 * d.freq_ratio_r
    if closed == math.inf:  # refused before any occupation is evaluated
        return False
    thetas = [d.theta0, closed]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for _, prof, duration in _plan_segments(cfg)[1]:
            ends = [0.0, *(k for k in prof.kinks if 0.0 < k < duration), duration]
            thetas.extend((closed * omega_at(prof, np.array(ends), d.freq_ratio_r)).tolist())
    return not all(theta <= 700.0 for theta in thetas)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_file())
# a hold past the horizon at an omega that rounds to 0 (divide by zero),
# at theta 800 (OccupationUnderflow), and a subnormal sine duration
@example(text="[dimensionless]\ntheta0 = 5e-324\nfreq_ratio_r = 1e300\ngamma_tau_g = 0.032\n"
              "[profile]\nshape = sine-opening\nduration = 40\n")
@example(text="[dimensionless]\ntheta0 = 10\nfreq_ratio_r = 2\ngamma_tau_g = 1\n"
              "[profile]\nshape = piecewise-linear\nbreakpoints = 0:1, 20:40\n"
              "[run]\nhorizon = 2\n")
@example(text="[dimensionless]\ntheta0 = 0.032\nfreq_ratio_r = 2\ngamma_tau_g = 1\n"
              "[profile]\nshape = sine-opening\nduration = 5e-324\n")
def test_config_files_answer_or_exit_2(tmp_path, text):
    # OccupationUnderflow is documented only for a run that reaches theta > 700
    text = text.replace("{out}", str(tmp_path / "out"))
    path = tmp_path / "run.ini"
    path.write_text(text)
    documented = DOCUMENTED_WARNINGS if reaches_underflow(text) else (AdiabaticityWarning,)
    assert_answers_or_exits_2(["cycle", f"--config={path}"], documented=documented)


def test_tiny_theta0_still_answers(capsys):
    # theta0 = 1e-300 keeps every occupation finite: the run answers
    assert run_cli("cycle", "--theta0", "1e-300") == 0
    assert capsys.readouterr().out == (
        "min T_ratio = 6.67399546421e-01 at s = 7.82000000000e-01\n"
        "recovery to 0.997 at s = 5.60644808195e+00\n"
        "final eta = 9.99962929717e+299\n"
    )


@pytest.mark.filterwarnings("ignore::molcool.thermo.OccupationUnderflow")
@pytest.mark.parametrize("theta0", ["14", "18", "20", "400"])
def test_ground_state_start_is_refused_before_any_route(monkeypatch, capsys, theta0):
    # at r = 2, theta0 >= ~13.8 starts within 1e-12 of eta = 1, which the
    # record's first sample would refuse; it is refused before anything runs
    refuse_calls(monkeypatch, "evolve_eta_closed_form", "evolve_eta_ode", "truncation_levels",
                 "populations_from_quenched")
    assert run_cli("cycle", "--theta0", theta0) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: eta0 must exceed 1 + 1e-12 (the ground-state limit), got 1.0")
    assert run_cli("cycle", "--theta0", theta0, "--with-oracle") == 2
    assert capsys.readouterr().err.splitlines()[-1] == err


def test_ground_state_reached_mid_run_is_named_by_its_s(capsys):
    # the start (theta0 = 14 at the open frequency) passes; the close then
    # drives eta to within 1e-12 of 1, first at sample 3,570 of 28,001
    argv = ["--theta0", "14", "--ratio", "2", "--gamma-tau", "10"]
    assert run_cli("cycle", *argv, "--init-mode", "finite-dwell", "--dwell", "3") == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: eta = 1.0000000000")
    assert "at s = -2.215 is at or below the ground-state limit 1 + 1e-12" in err


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


def test_unusable_output_directory_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    # an existing file where the output directory would go: exit 4 with a
    # message naming it, and nothing run or printed before
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before the output directory was made")

    monkeypatch.setattr("molcool.cli.run_cycle", refuse)
    monkeypatch.setattr("molcool.cli.run_sweep", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    for argv in (("cycle",), ("sweep", "--axis", "theta0", "--values", "0.032"),
                 ("reproduce-fig4",)):
        assert run_cli(*argv, "--out", str(blocker)) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(blocker) in err


def test_cross_check_exit_code(monkeypatch, capsys):
    def explode(cfg):
        raise SolverCrossCheckError("solver cross-check failed: synthetic")

    monkeypatch.setattr("molcool.cli.run_cycle", explode)
    rc = run_cli("cycle")
    assert rc == 3
    assert "solver cross-check failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_messages_match_a_parser_of_every_command(argv, monkeypatch):
    # the shared parser, once it has served every command, prints what a
    # parser of every command built afresh for this one call prints
    for other in CLI_ARGVS:
        cli_call(other)
    shared = cli_call(argv)
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert cli_call(argv) == shared


def subparsers(parser):
    """The command names `parser` has a subparser for, in order."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(commands.choices)


@pytest.mark.parametrize("argv", [None, [], ["bogus"], ["--help"]], ids=repr)
def test_no_named_command_builds_every_subparser(argv, monkeypatch, capsys):
    # main parses with the one shared parser, which has every command's
    # subparser; argv None reads sys.argv
    monkeypatch.setattr(sys, "argv", ["molcool", *(argv or [])])
    parser = build_parser()
    with pytest.raises(SystemExit):  # each argv is a usage error or a help
        main(argv)
    assert build_parser() is parser
    assert subparsers(parser) == ["cycle", "sweep", "convert-units", "reproduce-fig4"]
    assert "{cycle,sweep,convert-units,reproduce-fig4}" in "".join(capsys.readouterr())


def test_repeated_calls_share_one_parser_and_print_alike(monkeypatch, capsys):
    # main parses with one parser per process: a second round of calls, after
    # an argparse error and a help in between, prints what the first printed
    first = [cli_call(argv) for argv in CLI_ARGVS]
    assert cli_call(["cycle", "--theta0", "abc"])[0] == 2
    assert cli_call(["sweep", "--help"])[0] == 0
    assert [cli_call(argv) for argv in CLI_ARGVS] == first
    # and its help still wraps to the terminal's width, which COLUMNS sets
    widest = {}
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["cycle", "--help"])
        widest[columns] = max(map(len, capsys.readouterr().out.splitlines()))
    assert widest["80"] <= 80 < widest["200"] <= 200


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("sweep", "--values", "1,2")
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        run_cli("no-such-command")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
