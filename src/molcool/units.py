"""SI parameters of the two-arm cavity and their dimensionless reduction.

Two identical arms of mass m, each bound to the molecular frame by a
spring kappa and bound to each other by a controllable coupling spring
kappa(t), separate in normal modes into a free center of mass (recorded
here, never evolved) and a single relative mode with reduced mass
mu = m/2 and stiffness kappa/2 + kappa(t).  All cycle dynamics depend on
the SI inputs only through three dimensionless groups:

    theta0 = hbar*omega0 / (k_B*T)   splitting at the open (soft) endpoint
    r      = omega1 / omega0         closed-over-open frequency ratio
    g      = gamma * tau_open        opening duration in relaxation times
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

from .constants import HBAR, K_B


class AdiabaticityWarning(UserWarning):
    """The opening is too fast for the slow-sweep treatment to be reliable."""


def _require_positive(name, value):
    # numbers.Real takes numpy's float and integer scalars as well
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_nonnegative(name, value):
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def _keep_floats(params):
    """Store each field as a Python float: numpy 2 computes with a float32 in float32."""
    for f in fields(params):
        object.__setattr__(params, f.name, float(getattr(params, f.name)))


@dataclass(frozen=True)
class PhysicalParams:
    """SI description of the device and its environment.

    mass: one arm's mass (kg); spring: frame spring per arm (N/m);
    coupling_max: inter-arm coupling spring in the closed configuration
    (N/m, 0 allowed); temperature: bath temperature (K); gamma: bath
    relaxation rate (1/s); tau_open: opening duration (s).
    """

    mass: float
    spring: float
    coupling_max: float
    temperature: float
    gamma: float
    tau_open: float

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("spring", self.spring)
        _require_positive("temperature", self.temperature)
        _require_positive("gamma", self.gamma)
        _require_positive("tau_open", self.tau_open)
        _require_nonnegative("coupling_max", self.coupling_max)
        _keep_floats(self)


@dataclass(frozen=True)
class NormalModeDecomposition:
    """Normal-mode masses and stiffnesses of the two-arm system.

    The center-of-mass mode (total_mass, kappa_cm) decouples from the
    coupling modulation and is never evolved; the relative mode
    (reduced_mass, kappa_rel, plus the time-dependent coupling) carries
    all the physics.
    """

    total_mass: float
    reduced_mass: float
    kappa_cm: float
    kappa_rel: float


@dataclass(frozen=True)
class DimensionlessParams:
    """The three groups that fully determine a cooling cycle."""

    theta0: float
    freq_ratio_r: float
    gamma_tau_g: float

    def __post_init__(self):
        _require_positive("theta0", self.theta0)
        if not (math.isfinite(self.freq_ratio_r) and self.freq_ratio_r >= 1.0):
            raise ValueError(f"freq_ratio_r must be >= 1, got {self.freq_ratio_r}")
        if not (math.isfinite(self.gamma_tau_g) and self.gamma_tau_g >= 0.0):
            raise ValueError(f"gamma_tau_g must be >= 0, got {self.gamma_tau_g}")
        _keep_floats(self)


@dataclass(frozen=True)
class SIQuantities:
    """Derived SI scales for a dimensionless parameter set at temperature T.

    `physical` is a full SI parameter set reconstructed with the stated
    free scales (mass, tau_open); it is None when g = 0 because a physical
    relaxation rate must be strictly positive.
    """

    omega0: float
    omega1: float
    tau_osc: float
    tau_osc_prime: float
    gamma: float
    physical: PhysicalParams | None


def reduce_to_relative_mode(params: PhysicalParams) -> NormalModeDecomposition:
    """Split the symmetric two-arm system into center-of-mass and relative modes."""
    m = params.mass
    kappa = params.spring
    return NormalModeDecomposition(
        total_mass=2.0 * m,
        reduced_mass=0.5 * m,
        kappa_cm=2.0 * kappa,
        kappa_rel=0.5 * kappa,
    )


def omega_from_kappa(kappa_rel: float, kappa_t: float, mu: float) -> float:
    """Relative-mode angular frequency sqrt((kappa_rel + kappa_t)/mu)."""
    _require_positive("kappa_rel", kappa_rel)
    _require_positive("mu", mu)
    _require_nonnegative("kappa_t", kappa_t)
    return math.sqrt((kappa_rel + kappa_t) / mu)


def to_dimensionless(params: PhysicalParams) -> DimensionlessParams:
    """Reduce SI parameters to (theta0, r, g).

    Warns with `AdiabaticityWarning` when omega0*tau_open < 20*pi (fewer
    than ten oscillation periods per opening), where the slow-sweep
    picture starts to fail; the reduction itself is still returned.
    """
    modes = reduce_to_relative_mode(params)
    omega0 = omega_from_kappa(modes.kappa_rel, 0.0, modes.reduced_mass)
    omega1 = omega_from_kappa(modes.kappa_rel, params.coupling_max, modes.reduced_mass)
    _require_positive("omega0", omega0)  # both divisors below; either can underflow to 0
    _require_positive("k_B T", K_B * params.temperature)
    if omega0 * params.tau_open < 20.0 * math.pi:
        warnings.warn(
            f"omega0*tau_open = {omega0 * params.tau_open:.3g} < 20*pi: fewer than "
            "10 oscillation periods per opening, outside the slow-sweep regime",
            AdiabaticityWarning,
            stacklevel=2,
        )
    return DimensionlessParams(
        theta0=HBAR * omega0 / (K_B * params.temperature),
        freq_ratio_r=omega1 / omega0,
        gamma_tau_g=params.gamma * params.tau_open,
    )


def si_roundtrip(
    d: DimensionlessParams,
    temperature: float,
    mass: float = 1.0,
    tau_open: float = 1.0,
) -> SIQuantities:
    """Derived SI quantities for (theta0, r, g) at bath temperature T.

    omega0 = theta0*k_B*T/hbar, omega1 = r*omega0, tau_osc = 2*pi/omega0,
    tau_osc' = 2*pi/omega1, gamma = g/tau_open.  The dimensionless groups
    leave the mass/spring scale and tau_open free; both enter only the
    reconstructed `physical` parameter set, which inverts
    `to_dimensionless` exactly for any positive choice of the two scales.
    """
    _require_positive("temperature", temperature)
    _require_positive("mass", mass)
    _require_positive("tau_open", tau_open)
    omega0 = d.theta0 * K_B * temperature / HBAR
    omega1 = d.freq_ratio_r * omega0
    _require_positive("omega0", omega0)  # theta0 k_B T can leave float range either way
    _require_positive("omega1", omega1)
    gamma = d.gamma_tau_g / tau_open
    physical = None
    if gamma > 0.0:
        try:
            spring, coupling_max = mass * omega0**2, 0.5 * mass * (omega1**2 - omega0**2)
        except OverflowError:
            raise ValueError(f"omega1 = {omega1:.3g} rad/s: its square is past float range") from None
        physical = PhysicalParams(
            mass=mass,
            spring=spring,
            coupling_max=coupling_max,
            temperature=temperature,
            gamma=gamma,
            tau_open=tau_open,
        )
    return SIQuantities(
        omega0=omega0,
        omega1=omega1,
        tau_osc=2.0 * math.pi / omega0,
        tau_osc_prime=2.0 * math.pi / omega1,
        gamma=gamma,
        physical=physical,
    )
