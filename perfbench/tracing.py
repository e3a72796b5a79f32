"""Spans around the calls into molcool's modules, recorded from outside.

The traced run replaces public functions at the module attributes through
which `molcool.cli` and `molcool.cycle` reach them, so the program itself
is not edited and its code paths do not change.  Every span stays in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from stats import union_length


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    op: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a thread with no open span of its own (a sweep's
    pool thread) hangs its spans under the innermost span open on the
    thread that started the op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._op: int | None = None
        self._op_thread: int | None = None

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            op_stack = self._stacks.get(self._op_thread) or []
            parent = op_stack[-1].id if op_stack else None
        with self._lock:
            span = Span(len(self.spans), name, parent, tid, self._op, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; spans opened inside carry its id."""
        self._op, self._op_thread = op_id, threading.get_ident()
        span = self.open("op")
        try:
            yield span
        finally:
            self.close(span)
            self._op = self._op_thread = None


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children[s.id], s.start, s.end) for s in spans
    }


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span.counts.update(count(args, result))
        return result

    return traced


def _kernel_counts(args, traj):
    return {"samples": traj.s.size - 1}


def _rk4_counts(args, traj):
    return {"substeps": round((traj.s[-1] - traj.s[0]) / traj.step_size)}


def _record_counts(args, record):
    return {"values": 5 * len(record)}


def _csv_counts(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _oracle_counts(args, traj):
    return {
        "levels": args[2].p.size,
        "samples": traj.s.size,
        "matrix_bytes": traj.populations.nbytes,
    }


def _sweep_counts(args, rows):
    return {"rows": len(rows), "error_rows": sum(r.error is not None for r in rows)}


def _targets(molcool):
    """(owner, attribute, span name, counter) for every call site a workload reaches."""
    cli, cycle = molcool.cli, molcool.cycle
    return [
        (cli, "main", "cli.main", None),
        (cli, "run_cycle", "cycle.run_cycle", None),
        (cli, "emit_csv", "cycle.emit_csv", _csv_counts),
        (cli, "emit_plot_script", "cycle.emit_plot_script", None),
        (cycle, "run_cycle", "cycle.run_cycle", None),
        (cycle, "run_sweep", "cycle.run_sweep", _sweep_counts),
        (cycle, "evolve_eta_closed_form", "solver.evolve_eta_closed_form", _kernel_counts),
        (cycle, "evolve_eta_ode", "solver.evolve_eta_ode", _rk4_counts),
        (cycle, "recovery_time", "solver.recovery_time", None),
        (cycle, "evolve_populations", "oracle.evolve_populations", _oracle_counts),
        (cycle, "populations_from_quenched", "oracle.populations_from_quenched", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer, molcool):
    """Wrap molcool's call sites in spans for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets(molcool):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), count))
        # a classmethod is replaced on the class, around its plain function
        record_cls = molcool.cycle.TimeSeriesRecord
        original = record_cls.__dict__["from_trajectory"]
        saved.append((record_cls, "from_trajectory", original))
        record_cls.from_trajectory = classmethod(
            _wrap(tracer, "cycle.record", original.__func__, _record_counts)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, untraced, traced, serial) -> dict[str, float]:
    """Per-layer metrics per traced op, from the spans of the traced ops.

    `untraced` and `traced` are the op times of the same specs without and
    with spans; `serial` holds 1-worker sweep times for a sweep workload.
    A layer the workload does not reach reads zero.
    """
    n = len(traced)
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_s, samples = busy("solver.evolve_eta_closed_form"), count(
        "solver.evolve_eta_closed_form", "samples"
    )
    rk4_s, substeps = busy("solver.evolve_eta_ode"), count("solver.evolve_eta_ode", "substeps")
    oracle = by_name["oracle.evolve_populations"]
    oracle_s = busy("oracle.evolve_populations")
    level_samples = sum(s.counts["levels"] * s.counts["samples"] for s in oracle)
    sweep_ids = {s.id for s in by_name["cycle.run_sweep"]}
    rows = [s.duration for s in by_name["cycle.run_cycle"] if s.parent in sweep_ids]
    return {
        "solver.kernel_s": kernel_s / n,
        "solver.kernel_samples": samples / n,
        "solver.kernel_us_per_sample": 1e6 * ratio(kernel_s, samples),
        "solver.rk4_s": rk4_s / n,
        "solver.rk4_substeps": substeps / n,
        "solver.rk4_ns_per_substep": 1e9 * ratio(rk4_s, substeps),
        "solver.recovery_s": busy("solver.recovery_time") / n,
        "cycle.record_s": busy("cycle.record") / n,
        "cycle.record_values": count("cycle.record", "values") / n,
        "cycle.orchestration_s": sum(own[s.id] for s in by_name["cycle.run_cycle"]) / n,
        "cycle.emit_csv_s": busy("cycle.emit_csv") / n,
        "cycle.csv_bytes": count("cycle.emit_csv", "bytes") / n,
        "cycle.plot_script_s": busy("cycle.emit_plot_script") / n,
        "cycle.sweep_rows": count("cycle.run_sweep", "rows") / n,
        "cycle.sweep_error_rows": count("cycle.run_sweep", "error_rows") / n,
        "cycle.sweep_row_p50_s": statistics.median(rows) if rows else 0.0,
        "cycle.sweep_speedup": (
            ratio(statistics.median(serial), statistics.median(untraced)) if serial else 0.0
        ),
        "oracle.evolve_s": oracle_s / n,
        "oracle.levels": count("oracle.evolve_populations", "levels") / n,
        "oracle.samples": count("oracle.evolve_populations", "samples") / n,
        "oracle.matrix_mb": count("oracle.evolve_populations", "matrix_bytes") / n / 1e6,
        "oracle.level_samples_per_s": ratio(level_samples, oracle_s),
        "cli.self_s": sum(own[s.id] for s in by_name["cli.main"]) / n,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
