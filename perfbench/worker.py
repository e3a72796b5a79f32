"""Run one workload in this fresh process and print its measurements.

Started by run.py, never by hand.  Prints "ready" as soon as molcool is
imported (run.py times set-up up to that line) and then the time of one
calibration loop (speed.py), runs the workload for the given number of
seconds and prints one JSON object.  With `--probe` it exits after the
calibration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import molcool  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# at most this many output-check messages travel back to run.py
MAX_PROBLEMS = 20


class Tally:
    """Attempted and failed ops, and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[: MAX_PROBLEMS - len(self.problems)]


def attempt(run, spec):
    """Time one op; returns (seconds, output or None, problems)."""
    t0 = time.perf_counter()
    try:
        output = run(spec)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, output, []


def checked(wl, spec, output, problems) -> list[str]:
    if problems:
        return problems
    try:
        return wl.check(spec, output)
    except Exception as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def roundtrip(wl, spec, output) -> list[str]:
    """One emit_csv -> read_csv_record round trip on the record an op gives."""
    try:
        record = wl.roundtrip_record(spec, output)
        if record is None:
            return []
        problem = workloads.roundtrip_problem(record, str(Path(wl.workdir) / "roundtrip.csv"))
    except Exception as exc:
        return [f"round trip raised {type(exc).__name__}: {exc}"]
    return [problem] if problem else []


def passes(seconds: float):
    """Yield pass numbers until another pass like the last would end past `seconds`.

    Whole passes keep every stratum of the seeded inputs equally often in
    a run; the first pass always runs.
    """
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        yield k
        k += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


def measure(wl, seconds: float) -> dict:
    """Untraced closed loop over whole passes of the workload's specs.

    Each op is bracketed by calibration loops, and its time is scaled to
    reference speed (speed.py) by the loops around it, or for a workload
    of ops too long for that by the median loop of the run; the raw times
    travel along.
    """
    tally = Tally()
    wall, cal = {}, {}  # op kind -> op wall times, loop times around them
    cycles = 0
    run_problems = None  # set by the round trip after the first good op
    for k in passes(seconds):
        for spec in wl.specs:
            cal_before = speed.calibration_s()
            dt, output, problems = attempt(wl.run, spec)
            cal_s = (cal_before + speed.calibration_s()) / 2
            kind = wl.kind(spec)
            wall.setdefault(kind, []).append(dt)
            cal.setdefault(kind, []).append(cal_s)
            problems = checked(wl, spec, output, problems)
            if run_problems is None and not problems:
                run_problems = roundtrip(wl, spec, output)
            tally.add(problems)
            if not problems:
                cycles += wl.cycles_per_op
            del output
        if k == 0:
            # later passes repeat the same inputs on a heap that earlier
            # ops left fragmented, which a one-op process never sees
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_problems = run_problems or []
    if wl.scale == "op":
        times = {k: [speed.scaled(t, c) for t, c in zip(wall[k], cal[k])] for k in wall}
    else:
        run_cal = statistics.median(c for cs in cal.values() for c in cs)
        times = {k: [speed.scaled(t, run_cal) for t in wall[k]] for k in wall}
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0 and not run_problems,
        "problems": tally.problems + run_problems,
        "op_times": times,
        "scale": wl.scale,
        "wall_op_times": wall,
        "cal_times": cal,
        "cycles": cycles,
        "peak_rss_kb": peak_rss_kb,
    }


def measure_traced(wl, seconds: float, spans_path: str) -> dict:
    """Passes over the workload's trace specs, each run untraced and then
    traced; a traced output must equal its untraced twin."""
    tracer = tracing.Tracer()
    tally = Tally()
    untraced, traced, serial = [], [], []
    run_serial = getattr(wl, "run_serial", None)
    for _ in passes(seconds):
        twins = []
        for spec in wl.trace_specs:
            dt, output, problems = attempt(wl.run, spec)
            untraced.append(dt)
            twins.append(None if problems else wl.digest(spec, output))
            tally.add(checked(wl, spec, output, problems))
            del output
        if run_serial is not None:
            for spec, twin in zip(wl.trace_specs, twins):
                dt, output, problems = attempt(run_serial, spec)
                serial.append(dt)
                if not problems and wl.digest(spec, output) != twin:
                    problems = [f"{spec}: 1-worker output differs from the pooled run"]
                tally.add(checked(wl, spec, output, problems))
                del output
        with tracing.instrument(tracer, molcool):
            for spec, twin in zip(wl.trace_specs, twins):
                with tracer.op(len(traced)) as span:
                    _, output, problems = attempt(wl.run, spec)
                traced.append(span.duration)
                if not problems and wl.digest(spec, output) != twin:
                    problems = [f"{spec}: traced output differs from the untraced run"]
                tally.add(checked(wl, spec, output, problems))
                del output
    metrics = tracing.layer_metrics(tracer.spans, untraced, traced, serial)
    with open(spans_path, "w") as fh:
        json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0,
        "problems": tally.problems,
        "layers": metrics,
        "traced_ops": len(traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if not Path(molcool.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"molcool imported from {molcool.__file__}, not this checkout", file=sys.stderr)
        return 2
    print("ready", flush=True)
    print(speed.calibration_s(), flush=True)
    if args.probe:
        return 0
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.trace:
        result = measure_traced(wl, args.seconds, args.spans)
    else:
        result = measure(wl, args.seconds)
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
