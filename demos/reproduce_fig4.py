#!/usr/bin/env python3
"""Run the pinned reference cycle and print its headline numbers.

Equivalent to `molcool reproduce-fig4 --out <dir>`, done through the
library API so the pieces are visible: build the config, run it, check
the two anchors, emit the CSV and a plot script next to it.
"""

import os
import sys

from molcool import (
    RECOVERY_TARGET,
    REFERENCE_MIN_T_RATIO,
    REFERENCE_RECOVERY_S,
    default_cycle_config,
    emit_csv,
    emit_plot_script,
    run_cycle,
)


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "reference_cycle_out"
    result = run_cycle(default_cycle_config())
    summ = result.summary

    print(f"samples: {len(result.record)}")
    print(f"min T_ratio = {summ.min_t_ratio:.6f} at s = {summ.argmin_s:.4f}")
    print(f"recovery to {RECOVERY_TARGET} at s = {summ.recovery.s:.4f}")
    print(f"final eta = {summ.final_eta:.6f}")

    ok = True
    for label, value, (expected, tol) in (
        ("min T_ratio", summ.min_t_ratio, REFERENCE_MIN_T_RATIO),
        ("recovery s", summ.recovery.s, REFERENCE_RECOVERY_S),
    ):
        passed = abs(value - expected) <= tol
        ok &= passed
        print(f"{label}: expected {expected} +/- {tol} -> {'PASS' if passed else 'FAIL'}")

    os.makedirs(out_dir, exist_ok=True)
    emit_csv(result.record, os.path.join(out_dir, "cycle.csv"))
    emit_plot_script(result.record, os.path.join(out_dir, "cycle_plot.py"))
    print(f"wrote {out_dir}/cycle.csv and {out_dir}/cycle_plot.py")
    print(f"render with: python3 {out_dir}/cycle_plot.py")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
