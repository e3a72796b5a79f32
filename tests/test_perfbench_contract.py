"""What the benchmark's tracing (perfbench/tracing.py) reads from molcool.

The traced run wraps functions at their module attributes and counts
work from what they return (the eta routes' samples and step, the
record's length, the oracle trajectory's attributes), so all must keep
existing and keep their meaning, and a cycle must keep calling its
routes through those attributes.
"""

from collections import Counter
from pathlib import Path

import molcool
import molcool.cli
from molcool.cycle import CycleConfig, FiniteDwell, _plan_segments, default_cycle_config
from molcool.oracle import evolve_populations, populations_from_quenched, truncation_levels
from molcool.profiles import FrequencyProfile
from molcool.solver import SAMPLES_PER_UNIT, STEP_SIZE, _check_run, _substeps_per_interval
from molcool.thermo import QuenchedState, nu_of
from molcool.units import DimensionlessParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_oracle_counts_read_the_trajectory(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile()
    init = populations_from_quenched(
        QuenchedState(eta=nu_of(0.6) + 1.0), truncation_levels(nu_of(0.3)) + 20
    )
    traj = evolve_populations(d, prof, init, horizon=1.0)
    counts = tracing._oracle_counts((d, prof, init), traj)
    assert counts == {
        "levels": init.p.size,
        "samples": traj.s.size,
        "matrix_bytes": traj.populations.nbytes,
    }
    # every call site the traced run wraps is a module attribute
    for owner, attr, _, _ in tracing._targets(molcool):
        assert callable(owner.__dict__[attr]), f"{owner.__name__}.{attr}"


def test_traced_cycle_reaches_every_layer(monkeypatch):
    # a cycle that stopped calling through the wrapped attributes would
    # zero the harness's per-layer metrics without failing it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = CycleConfig(
        dimensionless=default_cycle_config().dimensionless,
        init_mode=FiniteDwell(dwell=3.0),
        with_oracle=True,
    )
    with tracing.instrument(tracing.Tracer(), molcool) as tracer:
        molcool.cycle.run_cycle(cfg)
    assert Counter(span.name for span in tracer.spans) == {
        "cycle.run_cycle": 1,
        "solver.evolve_eta_closed_form": 3,  # close, hold, open
        "solver.evolve_eta_ode": 3,
        "oracle.populations_from_quenched": 1,
        "oracle.evolve_populations": 3,
        "cycle.record": 1,
        "solver.recovery_time": 1,
    }
    # the ladder is sized and refused, if at all, before either eta route starts
    ladder = next(s for s in tracer.spans if s.name == "oracle.populations_from_quenched")
    kernel = next(s for s in tracer.spans if s.name == "solver.evolve_eta_closed_form")
    assert ladder.end <= kernel.start


def test_traced_counts_are_the_work_done(monkeypatch):
    # solver.kernel_us_per_sample, solver.rk4_ns_per_substep and
    # cycle.record_values divide by or report these counts, which the
    # harness takes from what the routes return (s, step_size) and from
    # the record's length; a change to either would skew them silently
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = CycleConfig(
        dimensionless=default_cycle_config().dimensionless, init_mode=FiniteDwell(dwell=3.0)
    )
    with tracing.instrument(tracing.Tracer(), molcool) as tracer:
        result = molcool.cycle.run_cycle(cfg)

    def counted(name, key):
        return sum(span.counts[key] for span in tracer.spans if span.name == name)

    _, segments = _plan_segments(cfg)
    intervals = [_check_run(duration, SAMPLES_PER_UNIT) for _, _, duration in segments]
    substeps = [
        n * _substeps_per_interval(duration, n, STEP_SIZE)
        for n, (_, _, duration) in zip(intervals, segments)
    ]
    assert counted("solver.evolve_eta_closed_form", "samples") == sum(intervals) == 28_000
    assert counted("solver.evolve_eta_ode", "substeps") == sum(substeps) == 140_000
    assert counted("cycle.record", "values") == 5 * len(result.record)


def test_traced_cli_reaches_the_emitters(monkeypatch, tmp_path):
    # the CLI must call its emitters through the wrapped module attributes,
    # or cycle.emit_csv_s and cycle.csv_bytes would read zero without failing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.instrument(tracing.Tracer(), molcool) as tracer:
        assert molcool.cli.main(["reproduce-fig4", "--out", str(tmp_path)]) == 0
    calls = Counter(span.name for span in tracer.spans)
    assert calls["cycle.emit_csv"] == 1
    assert calls["cycle.emit_plot_script"] == 1
    csv_span = next(s for s in tracer.spans if s.name == "cycle.emit_csv")
    assert csv_span.counts["bytes"] == (tmp_path / "cycle.csv").stat().st_size


def test_each_workload_runs_one_op_cleanly(monkeypatch, tmp_path):
    # BENCHMARK.json runs two of the three workloads; one op of each, on
    # its cheapest input, keeps the calls all three make of molcool
    # (run_sweep's max_workers, SweepSpec's positional fields, the
    # oracle's mean_n) from changing shape unnoticed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    reference = workloads.Reference(seed=0, workdir=str(tmp_path))
    assert reference.check("reproduce-fig4", reference.run("reproduce-fig4")) == []
    sweep = workloads.StiffSweep(seed=0, workdir=str(tmp_path))
    spec = max(sweep.specs)  # the largest theta0
    assert sweep.check(spec, sweep.run(spec)) == []
    assert sweep.check(spec, sweep.run_serial(spec)) == []
    ladder = workloads.OracleLadder(seed=0, workdir=str(tmp_path))
    theta0 = max(ladder.specs)  # the smallest ladder
    result = ladder.run(theta0)
    assert ladder.check(theta0, result) == []
    ladder.digest(theta0, result)  # reads result.oracle.mean_n
