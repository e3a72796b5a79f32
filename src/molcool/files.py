"""The files a run writes besides its record's CSV, and the config file.

`emit_sweep_csv` writes a sweep's rows, `emit_plot_script` the
matplotlib script that plots a cycle's or a sweep's CSV, and
`serialize_config` and `parse_config` write and read the INI config
file whose keys `cycle._override` applies.
"""

from __future__ import annotations

import io

from .cycle import CycleConfig, FiniteDwell, _override, default_cycle_config
from .profiles import FrequencyProfile, ProfileShape
from .record import TimeSeriesRecord, _fmt

SWEEP_CSV_HEADER = "axis_value,min_T_ratio,argmin_s,recovery_s,recovered,error"


def emit_sweep_csv(rows, path) -> None:
    """Write sweep rows as CSV (empty cells for a failed run's numbers)."""
    import csv

    def cell(v):
        return "" if v is None else (_fmt(v) if isinstance(v, float) else str(v).lower())

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            for row in rows:
                writer.writerow(
                    [
                        _fmt(row.axis_value),
                        cell(row.min_t_ratio),
                        cell(row.argmin_s),
                        cell(row.recovery_s),
                        cell(row.recovered),
                        row.error or "",
                    ]
                )
    except OSError as exc:
        raise OSError(f"CSV emission to {path} failed: {exc}") from exc


# the script `emit_plot_script` writes: each kind's dict below fills in its
# name, docstring, row filter, empty-file message, columns and panels
_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""{doc}"""
import csv
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CSV_NAME = '{kind}.csv'

path = os.path.join(HERE, CSV_NAME)
if not os.path.exists(path):
    sys.exit(f"input CSV not found: {{path}} (rerun the {kind} command first)")
with open(path, newline="") as fh:
    rows = {rows}
if not rows:
    sys.exit(f"{empty} {{path}}")

{columns}

# imported only here, so that a missing CSV is reported without matplotlib
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

{panels}
fig.tight_layout()
out = os.path.join(HERE, '{kind}.png')
fig.savefig(out, dpi=160)
print(f"wrote {{out}}")
'''

# "panels" is a template itself, of the cycle's title or the sweep's axis and title
_CYCLE_PLOT = {
    "kind": "cycle",
    "doc": '''Draw the cooling cycle stored next to this script.

Top panel: temperature ratio with the frequency schedule overlaid.
Bottom panel: mean excitation number.
''',
    "rows": "list(csv.DictReader(fh))",
    "empty": "input CSV has no data rows:",
    "columns": '''\
s = [float(r["s"]) for r in rows]
omega = [float(r["omega_over_omega1"]) for r in rows]
mean_n = [float(r["mean_n"]) for r in rows]
t_ratio = [float(r["T_ratio"]) for r in rows]''',
    "panels": '''\
fig, (top, bottom) = plt.subplots(2, 1, sharex=True, figsize=(7.0, 7.0))
top.plot(s, t_ratio, color="tab:blue", label="T(t)/T")
top.set_ylabel("T(t)/T", color="tab:blue")
top.axhline(1.0, color="gray", lw=0.6, ls=":")
twin = top.twinx()
twin.plot(s, omega, color="tab:red", label="omega/omega1")
twin.set_ylabel("omega(t)/omega1", color="tab:red")
top.set_title({title!r})
bottom.plot(s, mean_n, color="tab:green")
bottom.set_ylabel("mean excitation number")
bottom.set_xlabel("t / tau_open")''',
}

_SWEEP_PLOT = {
    "kind": "sweep",
    "doc": '''Draw the sweep summary stored next to this script: deepest cooling
per axis value (failed rows are skipped).''',
    "rows": '[r for r in csv.DictReader(fh) if r["min_T_ratio"]]',
    "empty": "no successful sweep rows in",
    "columns": '''\
x = [float(r["axis_value"]) for r in rows]
y = [float(r["min_T_ratio"]) for r in rows]''',
    "panels": '''\
fig, ax = plt.subplots(figsize=(6.0, 4.0))
ax.plot(x, y, marker="o", color="tab:blue")
if min(x) > 0 and max(x) / min(x) > 30:
    ax.set_xscale("log")
ax.set_xlabel({axis!r})
ax.set_ylabel("min T(t)/T")
ax.set_title({title!r})''',
}


def emit_plot_script(source, path, axis=None) -> None:
    """Write a self-contained matplotlib script that plots the CSV emitted
    alongside it, `cycle.csv` or `sweep.csv`.  `source` is a
    TimeSeriesRecord (cycle panels) or a sequence of SweepRow (summary
    curve, with `axis` as its label); the script resolves the CSV
    relative to its own location and exits with a message naming it when
    it is missing, before it imports matplotlib.
    """
    if isinstance(source, TimeSeriesRecord):
        if len(source) == 0:
            raise ValueError("cannot emit a plot script for an empty record")
        title = "Cooling cycle"
        if source.s[0] < 0.0:
            title += " (pre-opening close and dwell included; extension mode)"
        parts, labels = _CYCLE_PLOT, {"title": title}
    else:
        if not list(source):
            raise ValueError("cannot emit a plot script for an empty sweep")
        axis = axis or "axis value"
        parts, labels = _SWEEP_PLOT, {"axis": axis, "title": f"Sweep over {axis}"}
    text = _PLOT_SCRIPT.format_map(dict(parts, panels=parts["panels"].format_map(labels)))
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"plot-script emission to {path} failed: {exc}") from exc


def serialize_config(cfg: CycleConfig) -> str:
    """Render a CycleConfig as INI text that parse_config inverts exactly;
    an output_dir it would read back differently (one with " #") is refused."""
    import configparser
    cp = configparser.ConfigParser(interpolation=None)

    def num(x) -> str:  # repr(float): a numpy scalar's repr is not a literal float() reads
        return repr(float(x))

    d = cfg.dimensionless
    cp["dimensionless"] = {
        key: num(getattr(d, key)) for key in ("theta0", "freq_ratio_r", "gamma_tau_g")
    }
    if cfg.profile != FrequencyProfile():
        prof = {"shape": cfg.profile.shape.value}
        if cfg.profile.shape is ProfileShape.CONSTANT:
            prof["level"] = num(cfg.profile.level)
        elif cfg.profile.shape is ProfileShape.PIECEWISE_LINEAR:
            points = cfg.profile.breakpoints
            prof["breakpoints"] = ", ".join(f"{num(s)}:{num(w)}" for s, w in points)
        else:
            prof["duration"] = num(cfg.profile.duration)
        cp["profile"] = prof
    run = {"init_mode": cfg.init_mode.name}
    if isinstance(cfg.init_mode, FiniteDwell):
        run["dwell"] = num(cfg.init_mode.dwell)
    run["horizon"] = num(cfg.horizon)
    run["with_oracle"] = "true" if cfg.with_oracle else "false"
    cp["run"] = run
    if cfg.output_dir is not None:
        cp["output"] = {"directory": cfg.output_dir}
    buf = io.StringIO()
    cp.write(buf)
    text = buf.getvalue()
    if cfg.output_dir is not None and parse_config(text).output_dir != cfg.output_dir:
        raise ValueError(f"output_dir {cfg.output_dir!r} would read back differently")
    return text


def _parse_breakpoints(text: str):
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sv, _, wv = chunk.partition(":")
        if not _:
            raise ValueError(f"breakpoint {chunk!r} is not in s:omega form")
        points.append((float(sv), float(wv)))
    return tuple(points)


def _profile_shape(text: str) -> ProfileShape:
    try:
        return ProfileShape(text)
    except ValueError:
        names = sorted(m.value for m in ProfileShape)
        raise ValueError(f"unknown profile shape {text!r}; expected one of {names}") from None


def _boolean(text: str) -> bool:
    import configparser
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _csv_only(text: str) -> str:
    if text != "csv":
        raise ValueError(f"unsupported output format {text!r}")
    return text


# every section and key a config file may hold, each with its parser
_CONFIG_KEYS = {
    "dimensionless": {"theta0": float, "freq_ratio_r": float, "gamma_tau_g": float},
    "profile": {
        "shape": _profile_shape,
        "duration": float,
        "level": float,
        "breakpoints": _parse_breakpoints,
    },
    "run": {"init_mode": str, "dwell": float, "horizon": float, "with_oracle": _boolean},
    "output": {"directory": str, "format": _csv_only},
}


def parse_config(text: str) -> CycleConfig:
    """Parse INI text into a CycleConfig; unknown sections or keys are errors.

    Values are read literally (no `%` interpolation).  Only the keys
    present are passed on, so every absent one takes its default.
    """
    import configparser
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ValueError("config must not use a DEFAULT section")
    given = {}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        stray = set(cp[section]) - set(_CONFIG_KEYS[section])
        if stray:
            raise ValueError(f"unknown key(s) in [{section}]: {sorted(stray)}")
        given[section] = {
            key: _CONFIG_KEYS[section][key](value) for key, value in cp[section].items()
        }
    if "dimensionless" not in given:
        raise ValueError("config needs a [dimensionless] section")
    missing = set(_CONFIG_KEYS["dimensionless"]) - set(given["dimensionless"])
    if missing:
        raise ValueError(f"[dimensionless] is missing {sorted(missing)}")
    profile = FrequencyProfile(**given["profile"]) if "profile" in given else None
    return _override(
        default_cycle_config(), **given["dimensionless"], **given.get("run", {}),
        profile=profile, output_dir=given.get("output", {}).get("directory"),
    )
