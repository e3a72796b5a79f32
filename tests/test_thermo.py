import numpy as np
import pytest

from molcool import (
    OccupationUnderflow,
    QuenchedState,
    ideal_cooling_limit,
    nu_of,
    ratio_from_eta,
    thermal_state,
)

# reference occupations computed at 50-digit precision
NU_REFERENCE = {
    0.01: 99.500833331944448,
    0.032: 30.752666621156665,
    0.048: 20.337333179741759,
    0.064: 15.130332969279948,
    0.1: 9.5083319447750496,
    0.3: 2.8582959135100826,
}


def test_nu_of_reference_values():
    for theta, nu in NU_REFERENCE.items():
        np.testing.assert_allclose(nu_of(theta), nu, rtol=1e-14)


def test_nu_of_laurent_series():
    # nu(theta) ~ 1/theta - 1/2 + theta/12 for small theta
    for theta in np.geomspace(1e-6, 1e-2, 50):
        series = 1.0 / theta - 0.5 + theta / 12.0
        np.testing.assert_allclose(nu_of(theta), series, rtol=1e-6)


def test_nu_of_boltzmann_tail():
    assert nu_of(50.0) < 1e-21
    assert nu_of(650.0) > 0.0


def test_nu_of_underflow_flagged():
    with pytest.warns(OccupationUnderflow):
        assert nu_of(701.0) == 0.0


def test_nu_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        nu_of(0.0)
    with pytest.raises(ValueError):
        nu_of(-0.1)
    with pytest.raises(ValueError, match="theta must not be empty"):
        nu_of([])


def test_nu_of_vectorized():
    thetas = np.array([0.01, 0.032, 0.1])
    out = nu_of(thetas)
    assert out.shape == thetas.shape
    np.testing.assert_allclose(out, [NU_REFERENCE[t] for t in thetas], rtol=1e-14)
    assert isinstance(nu_of(0.032), float)


def test_thermal_state():
    np.testing.assert_allclose(thermal_state(0.032).eta, 31.752666621156665, rtol=1e-14)
    np.testing.assert_allclose(thermal_state(0.064).eta, 16.130332969279948, rtol=1e-14)


def test_temperature_ratio_equilibrium_is_unity():
    for theta in np.geomspace(1e-3, 10.0, 60):
        np.testing.assert_allclose(
            ratio_from_eta(thermal_state(theta).eta, theta), 1.0, atol=1e-12
        )


def test_temperature_ratio_octave_quench():
    # a state thermalized at 2*theta and measured at theta sits at exactly
    # one half: both logs collapse to -theta and -2*theta
    for theta in (0.01, 0.032, 0.3):
        state = thermal_state(2.0 * theta)
        np.testing.assert_allclose(ratio_from_eta(state.eta, theta), 0.5, atol=1e-12)
    np.testing.assert_allclose(
        ratio_from_eta(QuenchedState(eta=16.130332969279948).eta, 0.032), 0.5, atol=1e-3
    )


def test_temperature_ratio_direction():
    nu = nu_of(0.032)
    assert ratio_from_eta(QuenchedState(eta=0.5 * nu + 1.0).eta, 0.032) < 1.0
    assert ratio_from_eta(QuenchedState(eta=2.0 * nu + 1.0).eta, 0.032) > 1.0


def test_temperature_ratio_monotone_in_eta():
    rng = np.random.default_rng(11)
    for theta in (0.01, 0.1, 1.0):
        etas = np.sort(1.0 + np.exp(rng.uniform(-6, 6, size=100)))
        ratios = [ratio_from_eta(QuenchedState(eta=e).eta, theta) for e in etas]
        assert np.all(np.diff(ratios) > 0)


def test_ground_state_guard():
    with pytest.raises(ValueError, match="ground-state limit"):
        ratio_from_eta(1.0 + 1e-13, 0.032)
    with pytest.raises(ValueError, match="theta_now must be positive and finite"):
        ratio_from_eta(2.0, 0.0)
    # a non-finite eta has no temperature: refused, not returned as nan or inf
    for eta in (np.nan, np.inf, [2.0, np.inf], [np.nan, 2.0]):
        with pytest.raises(ValueError, match="^eta must be finite and above the quantum "):
            ratio_from_eta(eta, 0.032)
    with pytest.raises(ValueError):
        QuenchedState(eta=1.0)
    with pytest.raises(ValueError):
        QuenchedState(eta=0.5)


def test_ideal_cooling_limit():
    assert ideal_cooling_limit(2.0) == 0.5
    assert ideal_cooling_limit(1.0) == 1.0
    np.testing.assert_allclose(1.0 - ideal_cooling_limit(4.0), 0.75, rtol=1e-15)
    with pytest.raises(ValueError):
        ideal_cooling_limit(0.9)
