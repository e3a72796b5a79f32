"""Cooling cycles of a damped harmonic oscillator with a steered frequency.

The package tracks the mean excitation number (plus one, `eta`) of a
single vibrational mode whose frequency is swept through close/hold/open
schedules while it exchanges quanta with a thermal bath, and reports the
resulting effective-temperature trajectory.  Two independent solver
routes (an exact exponential-kernel propagation and a fixed-step ODE
integration) plus a Fock-level population oracle cross-check each other;
the `molcool` CLI wraps single runs, parameter sweeps, unit conversion,
and the pinned reference cycle.
"""

from .constants import HBAR, K_B
from .cycle import (
    CSV_HEADER,
    CycleConfig,
    CycleResult,
    CycleSummary,
    FiniteDwell,
    REFERENCE_MIN_T_RATIO,
    REFERENCE_RECOVERY_S,
    SweepRow,
    SweepSpec,
    ThermalClosed,
    TimeSeriesRecord,
    default_cycle_config,
    emit_csv,
    emit_plot_script,
    emit_sweep_csv,
    parse_config,
    read_csv_record,
    run_cycle,
    run_sweep,
    serialize_config,
    sweep_range_values,
)
from .errors import SolverCrossCheckError, SolverError
from .oracle import (
    PopulationTrajectory,
    PopulationVector,
    evolve_populations,
    mean_occupation,
    populations_from_quenched,
    truncation_levels,
)
from .profiles import FrequencyProfile, ProfileShape, omega_at
from .solver import (
    RECOVERY_TARGET,
    EtaTrajectory,
    RecoveryResult,
    evolve_eta_closed_form,
    evolve_eta_ode,
    recovery_time,
)
from .thermo import (
    OccupationUnderflow,
    QuenchedState,
    ideal_cooling_limit,
    nu_of,
    ratio_from_eta,
    thermal_state,
)
from .units import (
    AdiabaticityWarning,
    DimensionlessParams,
    NormalModeDecomposition,
    PhysicalParams,
    SIQuantities,
    omega_from_kappa,
    reduce_to_relative_mode,
    si_roundtrip,
    to_dimensionless,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticityWarning",
    "CSV_HEADER",
    "CycleConfig",
    "CycleResult",
    "CycleSummary",
    "DimensionlessParams",
    "EtaTrajectory",
    "FiniteDwell",
    "FrequencyProfile",
    "HBAR",
    "K_B",
    "NormalModeDecomposition",
    "OccupationUnderflow",
    "PhysicalParams",
    "PopulationTrajectory",
    "PopulationVector",
    "ProfileShape",
    "QuenchedState",
    "RECOVERY_TARGET",
    "REFERENCE_MIN_T_RATIO",
    "REFERENCE_RECOVERY_S",
    "RecoveryResult",
    "SIQuantities",
    "SolverCrossCheckError",
    "SolverError",
    "SweepRow",
    "SweepSpec",
    "ThermalClosed",
    "TimeSeriesRecord",
    "default_cycle_config",
    "emit_csv",
    "emit_plot_script",
    "emit_sweep_csv",
    "evolve_eta_closed_form",
    "evolve_eta_ode",
    "evolve_populations",
    "ideal_cooling_limit",
    "mean_occupation",
    "nu_of",
    "omega_at",
    "omega_from_kappa",
    "parse_config",
    "populations_from_quenched",
    "ratio_from_eta",
    "read_csv_record",
    "recovery_time",
    "reduce_to_relative_mode",
    "run_cycle",
    "run_sweep",
    "serialize_config",
    "si_roundtrip",
    "sweep_range_values",
    "thermal_state",
    "to_dimensionless",
    "truncation_levels",
]
