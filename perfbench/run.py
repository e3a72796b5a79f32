"""molcool benchmark.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Runs one workload (or `all` three, one after another) in a fresh worker
process, checks every output, and prints each metric by name with its
unit.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--trace 0` measures the
end-to-end metrics of BENCHMARK.json; `--trace 1` makes a separate traced
run and reports the per-layer metrics.  Every run also writes a results
file, stamped with the code and machine it ran on, under perfbench/results/.

Exits 2 without a result when the checkout holds no molcool sources or a
worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reference", "stiff_sweep", "oracle_ladder")
# fresh interpreters timed to "ready" before and again after the workload
# (besides its own), so that one burst of machine load does not set setup_s
SETUP_PROBES = 1
# a run, probes included, must end well inside three minutes
RUN_LIMIT_S = 170.0
# numpy's BLAS would otherwise start a thread per core in every sweep
# thread, and a workload may use at most nproc threads
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn_worker(args: list[str], timeout: float) -> tuple[float, float, str]:
    """Start worker.py; returns (seconds until it printed "ready", the time of the
    calibration loop it ran next, the rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        cal_line = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    try:
        cal_s = float(cal_line)
    except ValueError:
        cal_s = None
    if first.strip() != "ready" or cal_s is None or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, cal_s, rest


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "molcool").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(raw: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample note) from an untraced run.

    Set-up and op times are scaled to reference speed (speed.py); op
    times by the loops around each op or by the run's median loop, as
    the workload says.  op_p50_s is the
    median op time of each op kind, averaged over the kinds: the
    reference workload alternates two commands of different length, and
    the median of such a two-cluster sample sits in the gap
    between the clusters, where it swings with their extremes.
    """
    by_kind = raw["op_times"]
    times = [t for kind_times in by_kind.values() for t in kind_times]
    tail_s, tail_pct, n = stats.tail(times)
    ops = f"{raw['scale']}-scaled ops"
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.fmean(statistics.median(t) for t in by_kind.values()),
        "op_tail_s": tail_s,
        "cycles_per_s": raw["cycles"] / sum(times),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, scaled",
        "op_p50_s": f"median of {n} {ops}" if len(by_kind) == 1 else "mean of medians of "
        + ", ".join(f"{len(t)} {kind}" for kind, t in by_kind.items()),
        "op_tail_s": f"p{tail_pct:.4g} of {n} {ops}, {n - round(tail_pct * n / 100)} above",
        "cycles_per_s": f"{raw['cycles']} cycles over {sum(times):.4g} s of {ops}",
        "peak_rss_mb": "worker ru_maxrss after the first pass",
        "ok_frac": f"{raw['attempted'] - raw['failed']} of {raw['attempted']} ops passed",
    }
    return values, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload in fresh processes and write its results file."""
    started = time.perf_counter()
    results_dir = HERE / "results"
    workdir = HERE / "work" / f"{workload}-{os.getpid()}"
    results_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    try:
        probes = 0 if trace else SETUP_PROBES
        ready = [spawn_worker(["--probe"], left())[:2] for _ in range(probes)]
        ready_s, cal_s, out = spawn_worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--workdir", str(workdir),
             "--spans", str(results_dir / f"{tag}-spans.json")],
            left(),
        )
        ready += [(ready_s, cal_s)] + [spawn_worker(["--probe"], left())[:2] for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(out.strip().splitlines()[-1])
    setup = [speed.scaled(ready_s, cal_s) for ready_s, cal_s in ready]
    if trace:
        values = raw["layers"]
        notes = {name: f"per traced op, {raw['traced_ops']} ops" for name in values}
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(raw, setup)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    stamp = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **raw["versions"],
        "samples": notes,
        "problems": raw["problems"],
        "cal_ref_s": speed.CAL_REF_S,
        "scale": raw.get("scale"),
        "op_times": raw.get("op_times"),
        "wall_op_times": raw.get("wall_op_times"),
        "cal_times": raw.get("cal_times"),
        "setup_times": setup,
        "wall_setup_times": [ready_s for ready_s, _ in ready],
        "setup_cal_times": [cal_s for _, cal_s in ready],
    }
    with open(results_dir / f"{tag}.json", "w") as fh:
        json.dump({"stamp": stamp, **result}, fh, indent=1)
    for problem in raw["problems"]:
        print(f"{workload}: FAILED {problem}")
    for name, m in metrics.items():
        print(f"{workload:<14} {name:<28} {m['value']:>14.6g} {m['unit']:<12} {notes[name]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the molcool benchmark.")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "molcool" / "__init__.py").is_file():
        print(f"error: no molcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace), spec)
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
