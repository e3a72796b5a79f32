import math

import numpy as np
import pytest

from molcool import (
    AdiabaticityWarning,
    DimensionlessParams,
    HBAR,
    K_B,
    PhysicalParams,
    omega_from_kappa,
    reduce_to_relative_mode,
    si_roundtrip,
    to_dimensionless,
)


def test_constants_exact():
    assert K_B == 1.380649e-23
    assert HBAR == 1.054571817e-34


def test_reduce_unit_masses():
    modes = reduce_to_relative_mode(
        PhysicalParams(mass=1.0, spring=1.0, coupling_max=0.0,
                       temperature=300.0, gamma=1.0, tau_open=1.0)
    )
    assert modes.total_mass == 2.0
    assert modes.reduced_mass == 0.5
    assert modes.kappa_cm == 2.0
    assert modes.kappa_rel == 0.5


def test_reduce_scaled():
    modes = reduce_to_relative_mode(
        PhysicalParams(mass=2.0, spring=4.0, coupling_max=0.0,
                       temperature=300.0, gamma=1.0, tau_open=1.0)
    )
    assert modes.total_mass == 4.0
    assert modes.reduced_mass == 1.0
    assert modes.kappa_cm == 8.0
    assert modes.kappa_rel == 2.0


def test_reduce_invariants_random():
    # M*mu = m^2 and kappa_cm = 4*kappa_rel for any positive inputs
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m, kappa = np.exp(rng.uniform(-20, 20, size=2))
        modes = reduce_to_relative_mode(
            PhysicalParams(mass=m, spring=kappa, coupling_max=0.0,
                           temperature=300.0, gamma=1.0, tau_open=1.0)
        )
        np.testing.assert_allclose(modes.total_mass * modes.reduced_mass, m * m, rtol=1e-15)
        np.testing.assert_allclose(modes.kappa_cm, 4.0 * modes.kappa_rel, rtol=1e-15)


def test_omega_from_kappa_examples():
    assert omega_from_kappa(0.5, 0.0, 0.5) == 1.0
    assert omega_from_kappa(0.5, 1.5, 0.5) == 2.0
    # quadrupling the total stiffness doubles the frequency
    w1 = omega_from_kappa(0.5, 0.5, 0.5)
    w2 = omega_from_kappa(0.5, 3.5, 0.5)
    np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-15)


def test_omega_from_kappa_monotone():
    rng = np.random.default_rng(7)
    for _ in range(200):
        kappa_rel, mu = np.exp(rng.uniform(-5, 5, size=2))
        kt = np.exp(rng.uniform(-5, 5))
        assert omega_from_kappa(kappa_rel, kt * 1.5, mu) > omega_from_kappa(kappa_rel, kt, mu)


def test_omega_from_kappa_rejects_bad_mu():
    with pytest.raises(ValueError):
        omega_from_kappa(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        omega_from_kappa(0.5, 0.0, -1.0)


def test_omega_from_kappa_rejects_negative_kappa_t():
    with pytest.raises(ValueError, match="kappa_t must be >= 0 and finite, got -0.1"):
        omega_from_kappa(0.5, -0.1, 0.5)


def _params_for_tau_osc(tau_osc, temperature=300.0):
    # pick mass=1 and the spring that makes the open frequency 2*pi/tau_osc
    omega0 = 2.0 * math.pi / tau_osc
    spring = 2.0 * 0.5 * omega0**2  # kappa_rel = spring/2, mu = 1/2
    return PhysicalParams(mass=1.0, spring=spring, coupling_max=0.0,
                          temperature=temperature, gamma=1.0, tau_open=1.0)


def test_to_dimensionless_theta0_anchor():
    # a 5 ps oscillation period at 300 K sits at theta0 close to 0.032
    d = to_dimensionless(_params_for_tau_osc(5.0e-12))
    np.testing.assert_allclose(d.theta0, 0.032, rtol=2e-3)
    omega0 = 2.0 * math.pi / 5.0e-12
    np.testing.assert_allclose(d.theta0, HBAR * omega0 / (K_B * 300.0), rtol=1e-12)


def test_to_dimensionless_g_and_r():
    p = PhysicalParams(mass=1.0, spring=1.0, coupling_max=1.5,
                       temperature=300.0, gamma=4.0, tau_open=0.25)
    with pytest.warns(AdiabaticityWarning):
        d = to_dimensionless(p)
    assert d.gamma_tau_g == 1.0
    # coupling_max = 3*kappa_rel quadruples the stiffness: r = 2
    np.testing.assert_allclose(d.freq_ratio_r, 2.0, rtol=1e-15)


def test_adiabaticity_warning_threshold():
    fast = _params_for_tau_osc(5.0e-12)
    slow = PhysicalParams(mass=fast.mass, spring=fast.spring, coupling_max=0.0,
                          temperature=300.0, gamma=1.0, tau_open=1e-12)
    with pytest.warns(AdiabaticityWarning):
        to_dimensionless(slow)


def test_si_roundtrip_tau_osc_anchor():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=1.0)
    si = si_roundtrip(d, 300.0)
    # reference value computed at high precision: tau_osc = 4.99921153169e-12 s
    np.testing.assert_allclose(si.tau_osc, 4.99921153169e-12, rtol=1e-11)
    np.testing.assert_allclose(si.tau_osc, 5.0e-12, rtol=5e-3)
    np.testing.assert_allclose(si.tau_osc_prime, 2.5e-12, rtol=5e-3)
    np.testing.assert_allclose(si.omega1, 2.0 * si.omega0, rtol=1e-15)


# random draws may land outside the slow-sweep regime; irrelevant here
@pytest.mark.filterwarnings("ignore::molcool.units.AdiabaticityWarning")
def test_si_roundtrip_is_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = DimensionlessParams(
            theta0=float(np.exp(rng.uniform(-6, 1))),
            freq_ratio_r=float(1.0 + rng.uniform(0, 4)),
            gamma_tau_g=float(np.exp(rng.uniform(-4, 3))),
        )
        si = si_roundtrip(d, 300.0, mass=2.5e-25, tau_open=1e-10)
        back = to_dimensionless(si.physical)
        np.testing.assert_allclose(back.theta0, d.theta0, rtol=1e-12)
        np.testing.assert_allclose(back.freq_ratio_r, d.freq_ratio_r, rtol=1e-12)
        np.testing.assert_allclose(back.gamma_tau_g, d.gamma_tau_g, rtol=1e-12)


def test_si_roundtrip_zero_g_has_no_physical():
    d = DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=0.0)
    si = si_roundtrip(d, 300.0)
    assert si.physical is None
    assert si.gamma == 0.0


def test_numpy_scalars_are_accepted_as_numbers():
    # each check takes any real number, numpy's scalars included, by value
    d = DimensionlessParams(theta0=np.float32(0.1), freq_ratio_r=np.int64(2), gamma_tau_g=1.0)
    assert d.theta0 == np.float32(0.1)
    params = PhysicalParams(
        mass=np.float32(1.0), spring=np.int64(4), coupling_max=np.float64(0.0),
        temperature=np.float64(300.0), gamma=np.int64(1), tau_open=np.float32(0.5),
    )
    assert reduce_to_relative_mode(params).kappa_rel == 2.0
    assert omega_from_kappa(np.float64(0.5), np.int64(1), np.float32(0.5)) == math.sqrt(3.0)
    for bad in (np.float32(0.0), np.float64(math.nan), np.float32(-1.0), np.float64(math.inf)):
        with pytest.raises(ValueError, match="theta0 must be positive and finite"):
            DimensionlessParams(theta0=bad, freq_ratio_r=2.0, gamma_tau_g=1.0)
    with pytest.raises(ValueError, match="kappa_t must be >= 0 and finite"):
        omega_from_kappa(0.5, np.float64(-1.0), 0.5)
    with pytest.raises(ValueError, match="coupling_max must be >= 0 and finite"):
        PhysicalParams(1.0, 1.0, np.float32(math.inf), 300.0, 1.0, 1.0)


def test_numpy_scalars_are_stored_as_python_floats():
    # a float32 kept as given would make numpy 2 compute the groups in float32
    d = DimensionlessParams(np.float32(0.1), 2.5, np.int64(1))
    for value in (d.theta0, d.freq_ratio_r, d.gamma_tau_g):
        assert type(value) is float
    assert d.theta0 * d.freq_ratio_r == float(np.float32(0.1)) * 2.5  # not np.float32(0.25)
    # 300 is exact in float32, so the reduction must not depend on its type
    args = (1e-26, 1.0, 3.0, 300.0, 1e12, 1e-9)
    narrow = to_dimensionless(PhysicalParams(*args[:3], np.float32(300.0), *args[4:]))
    assert narrow == to_dimensionless(PhysicalParams(*args))
    assert type(narrow.theta0) is float


def test_validation_rejects_nonpositive():
    with pytest.raises(ValueError):
        PhysicalParams(mass=0.0, spring=1.0, coupling_max=0.0,
                       temperature=300.0, gamma=1.0, tau_open=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=1.0, spring=1.0, coupling_max=-0.1,
                       temperature=300.0, gamma=1.0, tau_open=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(theta0=-0.1, freq_ratio_r=2.0, gamma_tau_g=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(theta0=0.032, freq_ratio_r=0.99, gamma_tau_g=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(theta0=0.032, freq_ratio_r=2.0, gamma_tau_g=-1.0)
    with pytest.raises(ValueError):
        si_roundtrip(DimensionlessParams(0.032, 2.0, 1.0), temperature=0.0)
