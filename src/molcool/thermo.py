"""Thermal occupation and effective temperature of a quenched oscillator mode.

The working state everywhere in this package is the quenched Boltzmann
form: level populations p_n = (1/eta)(1 - 1/eta)^n, fully characterized
by the single number eta = <n> + 1.  A mode equilibrated with the bath
has eta = nu(theta) + 1, where nu is the Bose-Einstein occupation at the
dimensionless level splitting theta = hbar*omega/(k_B*T).

`nu_of` checks its theta and then runs `_nu_core`, the one place nu(theta)
and its underflow rule are computed; `solver.occupation_at`, on the
package's own grids, calls the core directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Beyond this the occupation is < 1e-300 and is reported as exactly zero.
_THETA_UNDERFLOW = 700.0

# eta - 1 below this is indistinguishable from the ground state in
# double precision; the effective temperature would be garbage, not cold.
GROUND_STATE_EPS = 1e-12


class OccupationUnderflow(RuntimeWarning):
    """Occupation rounded to zero: theta is far into the deep quantum regime."""


@dataclass(frozen=True)
class QuenchedState:
    """Quenched Boltzmann state with mean excitation eta - 1."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 1.0 and np.isfinite(self.eta)):
            raise ValueError(
                f"eta must exceed 1, got {self.eta}; eta = 1 is the ground-state limit"
            )


def nu_of(theta):
    """Bose-Einstein occupation nu = 1/(exp(theta) - 1).

    Parameters
    ----------
    theta : float or ndarray
        Dimensionless splitting hbar*omega/(k_B*T), strictly positive.

    Returns
    -------
    float or ndarray
        Occupation; exactly 0.0 with an `OccupationUnderflow` warning for
        theta too large to resolve in double precision.
    """
    th = np.asarray(theta, dtype=float)
    if th.size == 0:
        raise ValueError("theta must not be empty")
    if not np.all(np.isfinite(th)) or np.any(th <= 0.0):
        raise ValueError("theta must be positive and finite")
    nu = _nu_core(th)
    if np.ndim(theta) == 0:
        return float(nu)
    return nu


def _nu_core(th):
    """`nu_of`'s arithmetic, unchecked: th must be a positive, finite numpy
    scalar or array.  A theta past `_THETA_UNDERFLOW` gives exactly 0.0, as
    1/expm1(inf), and warns `OccupationUnderflow` at the caller's caller."""
    big = th > _THETA_UNDERFLOW
    if big.any():
        warnings.warn(
            f"occupation underflows to zero for theta > {_THETA_UNDERFLOW:g}",
            OccupationUnderflow,
            stacklevel=3,
        )
        th = np.where(big, np.inf, th)
    return 1.0 / np.expm1(th)


def thermal_eta(theta: float) -> float:
    """eta = nu(theta) + 1 of the bath equilibrium at splitting theta."""
    return nu_of(theta) + 1.0


def thermal_state(theta: float) -> QuenchedState:
    """Bath equilibrium at splitting theta, eta = `thermal_eta(theta)`."""
    return QuenchedState(eta=thermal_eta(theta))


def ratio_from_eta(eta, theta_now):
    """Effective temperature over the bath temperature, for scalar or array eta.

    T_eff/T = log[nu/(nu+1)] / log[1 - 1/eta] evaluated at the
    instantaneous splitting theta_now: 1 for a state bath-equilibrated
    at theta_now, below 1 for a colder one.  Since nu/(nu+1) = exp(-theta)
    identically, the numerator is computed as -theta_now; the denominator
    uses log1p for accuracy near equilibrium.
    """
    eta_a = np.asarray(eta, dtype=float)
    th = np.asarray(theta_now, dtype=float)
    if not np.all(np.isfinite(th)) or np.any(th <= 0.0):
        raise ValueError("theta_now must be positive and finite")
    if not np.all((eta_a > 1.0 + GROUND_STATE_EPS) & (eta_a < np.inf)):
        raise ValueError("eta must be finite and above the quantum ground-state limit")
    ratio = th / -np.log1p(-1.0 / eta_a)
    if np.ndim(eta) == 0 and np.ndim(theta_now) == 0:
        return float(ratio)
    return ratio


def ideal_cooling_limit(freq_ratio_r: float) -> float:
    """Best possible temperature ratio for a lossless sweep, omega0/omega1 = 1/r."""
    if not (freq_ratio_r >= 1.0 and np.isfinite(freq_ratio_r)):
        raise ValueError(f"frequency ratio must be >= 1, got {freq_ratio_r}")
    return 1.0 / freq_ratio_r
