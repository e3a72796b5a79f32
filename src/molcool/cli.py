"""Command-line interface.

Subcommands: `cycle` (one run), `sweep` (one axis, many runs),
`convert-units` (dimensionless <-> SI), `reproduce-fig4` (the pinned
reference cycle with its two anchors checked).

Exit codes: 0 success, 1 reference-anchor failure, 2 validation error or a
run the solver cannot finish, 3 solver cross-check failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .cycle import (
    CycleConfig,
    CycleResult,
    FiniteDwell,
    RECOVERY_TARGET,
    REFERENCE_MIN_T_RATIO,
    REFERENCE_RECOVERY_S,
    SweepSpec,
    _INIT_MODES,
    _config_for_value,
    _fmt,
    default_cycle_config,
    emit_csv,
    emit_plot_script,
    emit_sweep_csv,
    parse_config,
    run_cycle,
    run_sweep,
    sweep_range_values,
)
from .errors import SolverCrossCheckError, SolverError
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
    sub.add_argument("--out", default=None, help="directory for CSV and plot-script output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molcool",
        description="Cooling cycles of a damped oscillator with a time-dependent frequency.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cycle = commands.add_parser("cycle", help="run one cooling cycle")
    _add_param_flags(cycle)
    cycle.set_defaults(func=_cmd_cycle)

    sweep = commands.add_parser("sweep", help="vary one parameter over many runs")
    _add_param_flags(sweep)
    sweep.add_argument(
        "--axis", required=True, choices=sorted(_AXIS_BY_FLAG), help="parameter to vary"
    )
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", default=None, help="comma-separated axis values")
    group.add_argument(
        "--range", dest="value_range", default=None, help="min:max:count[:log] axis values"
    )
    sweep.add_argument("--workers", type=int, default=1, help="worker threads (default: 1)")
    sweep.set_defaults(func=_cmd_sweep)

    conv = commands.add_parser(
        "convert-units", help="dimensionless -> SI, or SI -> dimensionless with --spring"
    )
    conv.add_argument("--theta0", type=float, default=None)
    conv.add_argument("--ratio", type=float, default=None)
    conv.add_argument("--gamma-tau", type=float, default=None)
    conv.add_argument("--temperature-kelvin", type=float, required=True)
    conv.add_argument("--mass", type=float, default=None, help="kg (SI direction, or free scale)")
    conv.add_argument("--spring", type=float, default=None, help="frame spring per arm, N/m")
    conv.add_argument("--coupling-max", type=float, default=None, help="peak coupling spring, N/m")
    conv.add_argument("--gamma", type=float, default=None, help="relaxation rate, 1/s")
    conv.add_argument("--tau-open", type=float, default=None, help="opening duration, s")
    conv.set_defaults(func=_cmd_convert_units)

    fig4 = commands.add_parser(
        "reproduce-fig4",
        help="run the pinned reference cycle and check both of its anchors",
    )
    fig4.add_argument("--out", default=None, help="directory for CSV and plot-script output")
    fig4.set_defaults(func=_cmd_reproduce_fig4)

    return parser


def _load_config(args) -> CycleConfig:
    """The config file's settings (or the reference cycle's), overridden by
    every flag given."""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise OSError(f"config file {args.config}: {exc}") from exc
    else:
        cfg = default_cycle_config()
    for flag, axis in _AXIS_BY_FLAG.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            cfg = _config_for_value(cfg, axis, value)
    init_mode = cfg.init_mode
    if args.init_mode is not None:
        init_mode = _INIT_MODES[args.init_mode]()
    if args.dwell is not None:
        if not isinstance(init_mode, FiniteDwell):
            raise ValueError("--dwell requires --init-mode finite-dwell")
        init_mode = FiniteDwell(args.dwell)
    flags = {"horizon": args.horizon, "with_oracle": args.with_oracle, "output_dir": args.out}
    return replace(
        cfg, init_mode=init_mode, **{k: v for k, v in flags.items() if v is not None}
    )


def _print_summary(result: CycleResult) -> None:
    summ = result.summary
    print(f"min T_ratio = {_fmt(summ.min_t_ratio)} at s = {_fmt(summ.argmin_s)}")
    if summ.recovery.recovered:
        print(f"recovery to {RECOVERY_TARGET} at s = {_fmt(summ.recovery.s)}")
    else:
        print(f"recovery to {RECOVERY_TARGET} not reached within horizon {summ.recovery.horizon}")
    print(f"final eta = {_fmt(summ.final_eta)}")
    if result.oracle is not None:
        print("oracle cross-check passed")


def _write_cycle_outputs(result: CycleResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "cycle.csv")
    emit_csv(result.record, csv_path)
    script_path = os.path.join(out_dir, "cycle_plot.py")
    emit_plot_script(result.record, script_path)
    print(f"wrote {csv_path}")
    print(f"wrote {script_path}")


def _cmd_cycle(args) -> int:
    cfg = _load_config(args)
    result = run_cycle(cfg)
    _print_summary(result)
    if cfg.output_dir is not None:
        _write_cycle_outputs(result, cfg.output_dir)
    return 0


def _parse_sweep_values(args):
    if args.values is not None:
        chunks = [c for c in (chunk.strip() for chunk in args.values.split(",")) if c]
        if not chunks:
            raise ValueError("--values must list at least one number")
        return tuple(float(c) for c in chunks)
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
        os.makedirs(base.output_dir, exist_ok=True)
        csv_path = os.path.join(base.output_dir, "sweep.csv")
        emit_sweep_csv(rows, csv_path)
        script_path = os.path.join(base.output_dir, "sweep_plot.py")
        emit_plot_script(rows, script_path, axis=axis)
        print(f"wrote {csv_path}")
        print(f"wrote {script_path}")
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
    cfg = default_cycle_config()
    result = run_cycle(cfg)
    summ = result.summary
    ok = True

    expected, tol = REFERENCE_MIN_T_RATIO
    passed = abs(summ.min_t_ratio - expected) <= tol
    ok &= passed
    print(
        f"min T_ratio = {_fmt(summ.min_t_ratio)} "
        f"(expected {expected} +/- {tol}): {'PASS' if passed else 'FAIL'}"
    )

    expected, tol = REFERENCE_RECOVERY_S
    passed = summ.recovery.recovered and abs(summ.recovery.s - expected) <= tol
    ok &= passed
    recov = _fmt(summ.recovery.s) if summ.recovery.recovered else "not reached"
    print(
        f"recovery to {RECOVERY_TARGET} at s = {recov} "
        f"(expected {expected} +/- {tol}): {'PASS' if passed else 'FAIL'}"
    )

    if args.out is not None:
        _write_cycle_outputs(result, args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
