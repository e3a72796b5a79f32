"""The machine-speed calibration that every end-to-end time is scaled by.

The benchmark's machine is a pair of virtual CPUs on a shared host.  Each
of them runs 1.3-2x slower for stretches of tens of seconds to minutes,
independently of the other, while neighbours load the host; the process
sees that as slower CPU time, not as stolen time.  The median reference
op of back-to-back 20-40 s runs swung by a quartile spread of 0.22-0.26
of its median in such periods, however long the runs, because a run is
shorter than a slow stretch.

So a timed span is bracketed by a fixed pure-Python loop (float
formatting, the interpreter work molcool's own hot paths share), and its
wall time is scaled by CAL_REF_S over the loop's mean time before and
after.  A scaled time reads in seconds on a CPU on which the loop takes
CAL_REF_S, about its time on an uncontended core of the 2-vCPU Xeon VM
the bounds were set on.  The loop keeps no string it makes, so it
reuses one block of memory and takes no page faults, whose cost differs
between a fresh interpreter and one that just freed a large heap.  The
loop is the benchmark's own code, so a change to molcool moves scaled
times in the same proportion as wall times.  Raw wall and loop times go
into every results file next to the scaled ones.
"""

from __future__ import annotations

import time

# seconds the calibration loop takes on the reference CPU
CAL_REF_S = 0.010
# formatted values per calibration
CAL_VALUES = 20000


def calibration_s() -> float:
    """Wall time of one pass of the calibration loop."""
    t0 = time.perf_counter()
    for i in range(CAL_VALUES):
        f"{i * 1.2345678e-3:.11e}"
    return time.perf_counter() - t0


def scaled(seconds: float, cal_s: float) -> float:
    """`seconds` measured while the calibration loop took `cal_s`, at reference speed."""
    return seconds * CAL_REF_S / cal_s
