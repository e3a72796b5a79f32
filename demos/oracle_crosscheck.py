#!/usr/bin/env python3
"""Check the reduced eta dynamics against the full level-population ladder.

The production solver tracks a single number per instant (eta, one plus
the mean occupation).  The reference integrator instead evolves every
Fock-level population of the truncated birth-death ladder.  If the
reduced model is right, mean_n + 1 from the ladder must land on eta
everywhere, and the level populations must stay geometric.
"""

import numpy as np

from molcool import (
    CycleConfig,
    DimensionlessParams,
    run_cycle,
)


def main() -> None:
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
    cfg = CycleConfig(dimensionless=d, with_oracle=True)
    result = run_cycle(cfg)
    oracle = result.oracle
    assert oracle is not None

    idx = np.searchsorted(result.trajectory.s, oracle.s)
    eta = result.trajectory.eta[idx]
    rel = np.abs((oracle.mean_n + 1.0) / eta - 1.0)
    print(f"ladder size: {oracle.populations.size} levels")
    print(f"samples compared: {oracle.s.size}")
    print(f"max |(mean_n + 1)/eta - 1| = {rel.max():.3e}")
    print(f"largest truncation tail bound: {oracle.tail_bound.max():.3e}")

    # geometric form: adjacent-level ratios p_{n+1}/p_n (n < 51) should be flat
    k = int(np.argmin(result.trajectory.T_ratio[idx]))
    print(f"level-ratio spread at the T_ratio minimum: {oracle.geometric_residual[k]:.3e}")
    print(f"largest level-ratio spread: {oracle.geometric_residual.max():.3e}")


if __name__ == "__main__":
    main()
