"""Tests of the benchmark's own statistics, self-time and golden-check code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import hashlib
import math
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_keeps_ten_samples_above():
    values = list(range(1, 31))  # 30 samples
    random.Random(0).shuffle(values)
    value, pct, n = stats.tail(values)
    assert (value, n) == (20, 30)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_at_eleven_samples_is_the_minimum():
    assert stats.tail(range(11)) == (0, 100 / 11, 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # quantiles(n=4) of 1..10: 2.75, 5.5, 8.25
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


@pytest.mark.parametrize(
    "intervals, lo, hi, expected",
    [
        ([], 0.0, 10.0, 0.0),
        ([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0, 3.0),  # overlapping
        ([(1.0, 2.0), (3.0, 5.0)], 0.0, 10.0, 3.0),  # disjoint
        ([(3.0, 5.0), (1.0, 2.0), (1.5, 1.8)], 0.0, 10.0, 3.0),  # nested, unsorted
        ([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0, 3.0),  # clipped to the parent
    ],
)
def test_union_length(intervals, lo, hi, expected):
    assert stats.union_length(intervals, lo, hi) == pytest.approx(expected)


def _span(i, parent, start, end, name="x"):
    return tracing.Span(i, name, parent, thread=0, op=0, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        # two pool threads whose children overlap in time
        _span(1, 0, 1.0, 5.0),
        _span(2, 0, 3.0, 6.0),
        # a grandchild counts against its own parent only
        _span(3, 1, 1.0, 4.0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(4.0 - 3.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)


def test_tracer_parents_pool_threads_under_the_op():
    tracer = tracing.Tracer()
    with tracer.op(7) as root:
        inner = tracer.open("inner")
        seen = []

        def pool_thread():
            span = tracer.open("row")
            seen.append(span)
            tracer.close(span)

        t = threading.Thread(target=pool_thread)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        tracer.close(inner)
    assert inner.parent == root.id
    assert seen[0].parent == inner.id
    assert {s.op for s in tracer.spans} == {7}


def test_golden_check_accepts_only_the_recorded_bytes():
    data = b"s,omega_over_omega1,eta,mean_n,T_ratio\n"
    table = {"cmd": hashlib.sha256(data).hexdigest()}
    assert workloads.golden_problem("cmd", data, table) is None
    problem = workloads.golden_problem("cmd", data + b"\n", table)
    assert problem is not None and "differs from golden" in problem


def test_golden_table_covers_both_reference_commands():
    assert set(workloads.GOLDEN) == set(workloads.Reference.COMMANDS)


def test_cooling_checks_enforce_the_floor_and_recovery():
    assert workloads.cooling_problems("x", 2.0, 0.6, True) == []
    assert workloads.cooling_problems("x", 2.0, 0.5 - 5e-4, True) == []
    assert len(workloads.cooling_problems("x", 2.0, 0.49, True)) == 1
    assert len(workloads.cooling_problems("x", 2.0, 1.01, False)) == 2


def test_stratified_draws_cover_every_slice():
    rng = random.Random(5)
    xs = workloads.stratified(rng, 0.003, 0.01, 24, log=True)
    assert all(0.003 <= x <= 0.01 for x in xs)
    slices = sorted(int(24 * math.log(x / 0.003) / math.log(0.01 / 0.003)) for x in xs)
    assert slices == list(range(24))
    assert workloads.stratified(random.Random(5), 0.003, 0.01, 24, log=True) == xs


def test_stratified_draws_mirror_in_pairs():
    xs = workloads.stratified(random.Random(3), 1.0, 3.0, 6, log=False)
    for a, b in zip(xs[::2], xs[1::2]):
        assert a + b == pytest.approx(4.0)
    logs = workloads.stratified(random.Random(3), 0.01, 0.1, 4, log=True)
    for a, b in zip(logs[::2], logs[1::2]):
        assert a * b == pytest.approx(0.001)
    odd = workloads.stratified(random.Random(3), 0.0, 1.0, 5, log=False)
    assert len(odd) == 5 and 0.4 <= odd[-1] < 0.6
