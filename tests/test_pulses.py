"""Envelope normalization, cumulative profiles, and field photon content."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pnrsim.errors import ConfigError
from pnrsim.pulses import (FieldInput, PulseEnvelope, cumulative_profile,
                           fock_input, gaussian_envelope, mixture_input,
                           rising_exponential_envelope, square_envelope,
                           superposition_input, tabulated_envelope)

widths = st.floats(0.05, 20.0, allow_nan=False)
centers = st.floats(-10.0, 10.0, allow_nan=False)


def quad_norm(env):
    lo, hi = env.support
    val, _ = quad(env.intensity, lo, hi, limit=400)
    return val


def sampled_sigma(env, n=40001):
    lo, hi = env.support
    t = np.linspace(lo, hi, n)
    w = env.intensity(t)
    mean = np.trapezoid(t * w, t)
    return np.sqrt(np.trapezoid((t - mean) ** 2 * w, t))


@settings(max_examples=30, deadline=None)
@given(widths, centers)
def test_gaussian_normalized_with_configured_width(sigma0, t_center):
    env = gaussian_envelope(sigma0, t_center)
    assert quad_norm(env) == pytest.approx(1.0, abs=1e-9)
    assert sampled_sigma(env) == pytest.approx(sigma0, rel=1e-6)
    assert env.cumulative(t_center) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(widths, centers)
def test_square_normalized_and_symmetric(width, t_center):
    env = square_envelope(width, t_center)
    # flat top at 1/width over the support, exact unit area
    assert env.intensity(t_center) == pytest.approx(1.0 / width, rel=1e-12)
    assert env.intensity(t_center - 0.51 * width) == 0.0
    assert env.sigma0 == pytest.approx(width / np.sqrt(12.0))
    assert env.cumulative(t_center) == pytest.approx(0.5, abs=1e-12)
    assert env.cumulative(t_center + width / 2) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20.0), centers)
def test_rising_exponential_normalized(rate, t_stop):
    env = rising_exponential_envelope(rate, t_stop)
    assert quad_norm(env) == pytest.approx(1.0, abs=1e-9)
    assert env.sigma0 == pytest.approx(1.0 / rate)
    assert env.cumulative(t_stop) == 1.0
    assert env(t_stop + 1e-9) == 0.0


@settings(max_examples=20, deadline=None)
@given(widths, centers, st.floats(-3.0, 3.0))
def test_cumulative_monotone_and_matches_quadrature(sigma0, t_center, detuning):
    env = gaussian_envelope(sigma0, t_center, detuning=detuning)
    lo, hi = env.support
    t = np.linspace(lo, hi, 2001)
    f = np.asarray(cumulative_profile(env, t))
    assert f[0] < 1e-9 and f[-1] > 1.0 - 1e-9
    assert np.all(np.diff(f) >= -1e-15)
    # against direct quadrature of the intensity
    tq = np.linspace(lo, t_center + sigma0, 40001)
    ref = np.trapezoid(env.intensity(tq), tq)
    assert env.cumulative(t_center + sigma0) == pytest.approx(ref, abs=1e-8)


def test_detuning_leaves_intensity_invariant():
    t = np.linspace(-4, 4, 501)
    base = gaussian_envelope(0.7)
    turned = gaussian_envelope(0.7, detuning=2.3)
    assert np.allclose(turned.intensity(t), base.intensity(t))
    assert not np.allclose(turned(t), base(t))


def test_tabulated_renormalizes_and_reports_moments():
    t = np.linspace(-6, 6, 4001)
    env = tabulated_envelope(t, 3.0 * np.exp(-t ** 2 / 4))  # unnormalized gaussian
    # normalization is exact on the envelope's own grid
    assert np.trapezoid(np.abs(env.values) ** 2, env.times) == pytest.approx(1.0, abs=1e-12)
    assert env.sigma0 == pytest.approx(1.0, rel=1e-4)
    assert env.t_center == pytest.approx(0.0, abs=1e-10)
    assert env.cumulative(0.0) == pytest.approx(0.5, abs=1e-6)


def test_tabulated_file_round_trip(tmp_path):
    src = gaussian_envelope(1.3, t_center=0.4)
    path = tmp_path / "pulse.txt"
    src.to_file(path, n_points=8001)
    loaded = PulseEnvelope.from_file(path)
    t = np.linspace(-5, 5, 301)
    assert np.abs(np.asarray(loaded(t)) - np.asarray(src(t))).max() < 1e-6
    assert loaded.sigma0 == pytest.approx(1.3, rel=1e-4)


def test_dict_round_trip_all_shapes():
    t = np.linspace(0, 1, 64)
    for env in (gaussian_envelope(0.8, 0.1, detuning=1.5),
                square_envelope(2.0, -0.5),
                rising_exponential_envelope(3.0, 1.0),
                tabulated_envelope(t, np.sin(np.pi * t) + 0.2j * t)):
        clone = PulseEnvelope.from_dict(env.to_dict())
        probe = np.linspace(*env.support, 97)
        assert np.allclose(np.asarray(clone(probe)), np.asarray(env(probe)))
    with pytest.raises(ConfigError):
        PulseEnvelope.from_dict({"schema_version": 99, "shape": "gaussian", "sigma0": 1.0})


def test_envelope_validation():
    with pytest.raises(ConfigError):
        gaussian_envelope(0.0)
    with pytest.raises(ConfigError):
        square_envelope(-1.0)
    with pytest.raises(ConfigError):
        rising_exponential_envelope(0.0)
    with pytest.raises(ConfigError):
        tabulated_envelope([0.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    with pytest.raises(ConfigError):
        tabulated_envelope([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ConfigError):
        PulseEnvelope("sawtooth", sigma0=1.0)


def test_fock_input_counting():
    env = gaussian_envelope(1.0)
    vac = fock_input(0, env)
    assert vac.coefficients.shape == (1, 1) and vac.weight(0, 0) == 1.0
    one = fock_input(1, env)
    assert one.coefficients.shape == (2, 2)  # 4 members in the two-sided expansion
    assert one.weight(1, 1) == 1.0 and one.weight(0, 0) == 0.0
    three = fock_input(3, env)
    assert three.coefficients.size == 16
    assert three.n_max == 3
    with pytest.raises(ConfigError):
        fock_input(-1, env)


def test_superposition_input_renormalizes():
    env = gaussian_envelope(1.0)
    f = superposition_input([2.0, 2.0j], env)
    assert f.weight(0, 0) == pytest.approx(0.5)
    assert f.weight(1, 1) == pytest.approx(0.5)
    assert f.weight(0, 1) == pytest.approx(-0.5j)
    with pytest.raises(ConfigError):
        superposition_input([0.0, 0.0], env)


def test_mixture_input_normalizes():
    env = gaussian_envelope(1.0)
    f = mixture_input([1.0, 3.0], env)
    assert f.weight(0, 0) == pytest.approx(0.25)
    assert f.weight(1, 1) == pytest.approx(0.75)
    assert f.weight(0, 1) == 0.0
    with pytest.raises(ConfigError):
        mixture_input([-0.5, 1.0], env)


def test_field_input_validation():
    env = gaussian_envelope(1.0)
    with pytest.raises(ConfigError):
        FieldInput(np.array([[0.5, 0.5], [0.1, 0.5]]), env)  # not hermitian
    with pytest.raises(ConfigError):
        FieldInput(np.array([[1.5, 0.0], [0.0, -0.5]]), env)  # negative population
    with pytest.raises(ConfigError):
        FieldInput(np.array([[0.4, 0.0], [0.0, 0.4]]), env)  # trace != 1
    with pytest.raises(ConfigError):
        FieldInput(np.ones((2, 3)) / 3.0, env)
    f = FieldInput(np.diag([0.5, 0.5]).astype(complex), env)
    with pytest.raises(ValueError):
        f.coefficients[0, 0] = 2.0  # frozen


def test_step_bound_is_a_sixty_fourth_of_the_support():
    assert gaussian_envelope(1.0).step_bound == pytest.approx(0.25)
    assert square_envelope(2.0).step_bound == pytest.approx(2.0 / 64)
    assert rising_exponential_envelope(4.0).step_bound == pytest.approx(
        10.0 / 64)
