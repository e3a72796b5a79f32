"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

# a tail value must have at least this many samples above it
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count), where percentile is the
    share of samples at or below the value.  With TAIL_BEYOND samples or
    fewer no sample has that many above it, so the maximum is returned
    with percentile 100; the sample count tells the reader which case held.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
