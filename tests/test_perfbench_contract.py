"""What the benchmark's tracing (perfbench/tracing.py) reads from molcool.

The traced run wraps functions at their module attributes and counts
work from the oracle trajectory's attributes, so both must keep existing.
"""

from pathlib import Path

import molcool
import molcool.cli
from molcool.oracle import evolve_populations, populations_from_quenched, truncation_levels
from molcool.profiles import FrequencyProfile
from molcool.thermo import QuenchedState, nu_of
from molcool.units import DimensionlessParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_oracle_counts_read_the_trajectory(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    d = DimensionlessParams(theta0=0.3, freq_ratio_r=2.0, gamma_tau_g=1.0)
    prof = FrequencyProfile(freq_ratio_r=2.0)
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
