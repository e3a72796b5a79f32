"""Command-line interface.

Subcommands: `cycle` (one run), `sweep` (one axis, many runs, one after
another in the calling thread; `--workers N` is an accepted upper bound
on threads, at least 1, that the one thread always meets),
`convert-units` (dimensionless <-> SI), `reproduce-fig4` (the pinned
reference cycle with its two anchors checked).

`main` parses with one parser per process (`build_parser`), which holds
every command's subparser and is built at the first call.

Exit codes: 0 success, 1 reference-anchor failure, 2 validation error or a
run the solver cannot finish, 3 solver cross-check failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import solver
from .cycle import (
    CycleConfig,
    CycleResult,
    REFERENCE_MIN_T_RATIO,
    REFERENCE_RECOVERY_S,
    SweepSpec,
    _INIT_MODES,
    _override,
    default_cycle_config,
    run_cycle,
    run_sweep,
    sweep_range_values,
)
from .errors import SolverCrossCheckError, SolverError
from .files import emit_plot_script, emit_sweep_csv, parse_config
from .record import _fmt, emit_csv
from .units import (
    DimensionlessParams,
    PhysicalParams,
    reduce_to_relative_mode,
    si_roundtrip,
    to_dimensionless,
)

_AXIS_BY_FLAG = {"theta0": "theta0", "ratio": "freq_ratio_r", "gamma-tau": "gamma_tau_g"}


def _add_param_flags(sub):
    sub.add_argument("--theta0", type=float, default=None, help="hbar*omega0/(k_B*T)")
    sub.add_argument("--ratio", type=float, default=None, help="omega1/omega0 (>= 1)")
    sub.add_argument("--gamma-tau", type=float, default=None, help="gamma*tau_open (>= 0)")
    sub.add_argument("--horizon", type=float, default=None, help="run length in tau_open units")
    sub.add_argument(
        "--with-oracle",
        action="store_true",
        default=None,
        help="also evolve Fock-level populations and cross-check the mean",
    )
    sub.add_argument(
        "--init-mode",
        choices=list(_INIT_MODES),
        default=None,
        help="start thermalized at the closed frequency, or model the closing ramp too",
    )
    sub.add_argument(
        "--dwell",
        type=float,
        default=None,
        help="closed hold time before opening (finite-dwell mode only)",
    )
    sub.add_argument("--config", default=None, help="INI config file; flags override it")
    _add_out_flag(sub)


def _add_out_flag(sub):
    sub.add_argument("--out", default=None, help="directory for CSV and plot-script output")


def _add_sweep_flags(sub):
    _add_param_flags(sub)
    sub.add_argument(
        "--axis", required=True, choices=sorted(_AXIS_BY_FLAG), help="parameter to vary"
    )
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", default=None, help="comma-separated axis values")
    group.add_argument(
        "--range", dest="value_range", default=None, help="min:max:count[:log] axis values"
    )
    sub.add_argument(
        "--workers", type=int, default=1,
        help="upper bound on threads, at least 1; runs are serial (default: 1)",
    )


def _add_convert_units_flags(sub):
    sub.add_argument("--theta0", type=float, default=None)
    sub.add_argument("--ratio", type=float, default=None)
    sub.add_argument("--gamma-tau", type=float, default=None)
    sub.add_argument("--temperature-kelvin", type=float, required=True)
    sub.add_argument("--mass", type=float, default=None, help="kg (SI direction, or free scale)")
    sub.add_argument("--spring", type=float, default=None, help="frame spring per arm, N/m")
    sub.add_argument("--coupling-max", type=float, default=None, help="peak coupling spring, N/m")
    sub.add_argument("--gamma", type=float, default=None, help="relaxation rate, 1/s")
    sub.add_argument("--tau-open", type=float, default=None, help="opening duration, s")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `molcool` parser, with every command's subparser, built once per
    process.  Parsing leaves it as it is, and argparse reads the terminal's
    width each time it formats help or usage, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="molcool",
        description="Cooling cycles of a damped oscillator with a time-dependent frequency.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, run) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        add_flags(sub)
        sub.set_defaults(func=run)
    return parser


def _load_config(args) -> CycleConfig:
    """The config file's settings (or the reference cycle's), overridden by
    every flag given, under the same rules as the file's keys."""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise OSError(f"config file {args.config}: {exc}") from exc
    else:
        cfg = default_cycle_config()
    return _override(
        cfg, theta0=args.theta0, freq_ratio_r=args.ratio, gamma_tau_g=args.gamma_tau,
        init_mode=args.init_mode, dwell=args.dwell, horizon=args.horizon,
        with_oracle=args.with_oracle, output_dir=args.out,
    )


def _print_summary(result: CycleResult) -> None:
    summ, target = result.summary, solver.RECOVERY_TARGET
    print(f"min T_ratio = {_fmt(summ.min_t_ratio)} at s = {_fmt(summ.argmin_s)}")
    if summ.recovery.recovered:
        print(f"recovery to {target} at s = {_fmt(summ.recovery.s)}")
    else:
        print(f"recovery to {target} not reached within horizon {summ.recovery.horizon}")
    print(f"final eta = {_fmt(summ.final_eta)}")
    if result.oracle is not None:
        print("oracle cross-check passed")


def _make_out_dir(out_dir: str | None) -> None:
    """Create the output directory, if one is given, before the run, so
    that one it cannot create (an existing file of that name) is refused
    with exit 4 before anything runs."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)


def _write_outputs(out_dir: str, kind: str, emit, source, **plot) -> None:
    """`<kind>.csv` written by `emit` and `<kind>_plot.py`, both from
    `source`, into `out_dir`, which `_make_out_dir` has created."""
    csv_path = os.path.join(out_dir, f"{kind}.csv")
    emit(source, csv_path)
    script_path = os.path.join(out_dir, f"{kind}_plot.py")
    emit_plot_script(source, script_path, **plot)
    print(f"wrote {csv_path}")
    print(f"wrote {script_path}")


def _cmd_cycle(args) -> int:
    cfg = _load_config(args)
    _make_out_dir(cfg.output_dir)
    result = run_cycle(cfg)
    _print_summary(result)
    if cfg.output_dir is not None:
        _write_outputs(cfg.output_dir, "cycle", emit_csv, result.record)
    return 0


def _parse_sweep_values(args):
    if args.values is not None:
        chunks = [c for c in (chunk.strip() for chunk in args.values.split(",")) if c]
        if not chunks:
            raise ValueError("--values must list at least one number")
        try:
            return tuple(float(c) for c in chunks)
        except ValueError as exc:
            raise ValueError(f"--values {args.values!r}: {exc}") from None
    parts = args.value_range.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"--range expects min:max:count[:log], got {args.value_range!r}")
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"--range count must be a whole number, got {parts[2]!r}") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    try:
        return sweep_range_values(float(parts[0]), float(parts[1]), count, spacing)
    except ValueError as exc:
        raise ValueError(f"--range {args.value_range!r}: {exc}") from None


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    base = _load_config(args)
    axis = _AXIS_BY_FLAG[args.axis]
    spec = SweepSpec(axis=axis, values=_parse_sweep_values(args), base=base)
    _make_out_dir(base.output_dir)
    rows = run_sweep(spec, max_workers=args.workers)
    for row in rows:
        if row.error is not None:
            print(f"{axis} = {_fmt(row.axis_value)}: failed: {row.error}", file=sys.stderr)
            continue
        recov = _fmt(row.recovery_s) if row.recovered else "not reached"
        print(
            f"{axis} = {_fmt(row.axis_value)}: min T_ratio = {_fmt(row.min_t_ratio)} "
            f"at s = {_fmt(row.argmin_s)}, recovery at s = {recov}"
        )
    if base.output_dir is not None:
        _write_outputs(base.output_dir, "sweep", emit_sweep_csv, rows, axis=axis)
    return 0


def _check_direction(args, direction: str, needed, stray) -> None:
    """Refuse a conversion missing a flag it needs or given one it ignores."""

    def value(flag):
        return getattr(args, flag[2:].replace("-", "_"))

    missing = [flag for flag in needed if value(flag) is None]
    if missing:
        raise ValueError(f"{direction} conversion needs {', '.join(missing)}")
    for flag in stray:
        if value(flag) is not None:
            raise ValueError(f"{flag} conflicts with the {direction} direction")


def _cmd_convert_units(args) -> int:
    if args.spring is None:
        _check_direction(
            args, "dimensionless -> SI", ("--theta0", "--ratio", "--gamma-tau"),
            ("--gamma", "--coupling-max"),
        )
        d = DimensionlessParams(
            theta0=args.theta0, freq_ratio_r=args.ratio, gamma_tau_g=args.gamma_tau
        )
        scales = {"mass": args.mass, "tau_open": args.tau_open}
        si = si_roundtrip(
            d, args.temperature_kelvin, **{k: v for k, v in scales.items() if v is not None}
        )
        print(f"omega0 = {_fmt(si.omega0)} rad/s")
        print(f"omega1 = {_fmt(si.omega1)} rad/s")
        print(f"tau_osc = {_fmt(si.tau_osc)} s")
        print(f"tau_osc_prime = {_fmt(si.tau_osc_prime)} s")
        print(f"gamma = {_fmt(si.gamma)} 1/s")
        if si.physical is not None:
            p = si.physical
            print(f"mass = {_fmt(p.mass)} kg")
            print(f"spring = {_fmt(p.spring)} N/m")
            print(f"coupling_max = {_fmt(p.coupling_max)} N/m")
            print(f"tau_open = {_fmt(p.tau_open)} s")
        return 0
    _check_direction(
        args, "SI -> dimensionless", ("--mass", "--coupling-max", "--gamma", "--tau-open"),
        ("--theta0", "--ratio", "--gamma-tau"),
    )
    params = PhysicalParams(
        mass=args.mass,
        spring=args.spring,
        coupling_max=args.coupling_max,
        temperature=args.temperature_kelvin,
        gamma=args.gamma,
        tau_open=args.tau_open,
    )
    d = to_dimensionless(params)
    modes = reduce_to_relative_mode(params)
    print(f"theta0 = {_fmt(d.theta0)}")
    print(f"freq_ratio_r = {_fmt(d.freq_ratio_r)}")
    print(f"gamma_tau_g = {_fmt(d.gamma_tau_g)}")
    print(f"total_mass = {_fmt(modes.total_mass)} kg")
    print(f"reduced_mass = {_fmt(modes.reduced_mass)} kg")
    print(f"kappa_cm = {_fmt(modes.kappa_cm)} N/m")
    print(f"kappa_rel = {_fmt(modes.kappa_rel)} N/m")
    return 0


def _cmd_reproduce_fig4(args) -> int:
    _make_out_dir(args.out)
    result = run_cycle(default_cycle_config())
    summ = result.summary
    recovery_s = summ.recovery.s if summ.recovery.recovered else None
    anchors = (
        ("min T_ratio", summ.min_t_ratio, REFERENCE_MIN_T_RATIO),
        (f"recovery to {solver.RECOVERY_TARGET} at s", recovery_s, REFERENCE_RECOVERY_S),
    )
    ok = True
    for label, value, (expected, tol) in anchors:
        passed = value is not None and abs(value - expected) <= tol
        ok &= passed
        shown = "not reached" if value is None else _fmt(value)
        verdict = "PASS" if passed else "FAIL"
        print(f"{label} = {shown} (expected {expected} +/- {tol}): {verdict}")
    if args.out is not None:
        _write_outputs(args.out, "cycle", emit_csv, result.record)
    return 0 if ok else 1


# the commands in help order: (help text, flag-adder, handler) by name
_COMMANDS = {
    "cycle": ("run one cooling cycle", _add_param_flags, _cmd_cycle),
    "sweep": ("vary one parameter over many runs", _add_sweep_flags, _cmd_sweep),
    "convert-units": (
        "dimensionless -> SI, or SI -> dimensionless with --spring",
        _add_convert_units_flags, _cmd_convert_units,
    ),
    "reproduce-fig4": (
        "run the pinned reference cycle and check both of its anchors",
        _add_out_flag, _cmd_reproduce_fig4,
    ),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverCrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
