"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload oracle_ladder --seeds 1-10

Runs run.py once per seed, one run at a time, and prints for every
end-to-end metric the median of the runs and the distance between their
first and third quartile as a share of that median, next to the metric's
bound from BENCHMARK.json.  A spread at or above a third of its bound
(setup_s excepted, which only has to stay steady between sets of runs)
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--save", help="write every run's results file and the spreads here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, saved = [], []
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        runs.append(result)
        saved.append(json.loads(
            (HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text()))
    steady = all(r["correct"] for r in runs)
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        summary[m["name"]] = {"median": statistics.median(values), "spread": spread,
                              "bound": m["bound"], "unit": m["unit"]}
        print(f"{m['name']:<14} median {statistics.median(values):>10.5g} {m['unit']:<5} "
              f"spread {spread:7.4f}  bound {m['bound']:.3f}  {'ok' if ok else 'WIDE'}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "summary": summary, "runs": saved}, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
