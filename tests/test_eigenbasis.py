"""Generalized eigenfunctions: pointwise values, smoothness, conjugation."""

import math

import numpy as np
import pytest

from barrierkets import (
    BarrierModel,
    Channel,
    GaussianPacket,
    QuadratureSpec,
    SignLabel,
    build_test_function,
    energy_prefactor,
    evaluate,
    momentum_transform,
    scattering_wave,
)
from oracles import fd_derivative, quad_complex

# sqrt(m / (2 pi k hbar^2)) at k = 1 with m = 1/2: 1 / (2 sqrt(pi))
PREFACTOR_K1 = 0.28209479177387814347
INV_SQRT_2PI = 0.39894228040143267794


def test_prefactor_literal_and_vectorization():
    m = BarrierModel()
    assert energy_prefactor(m, 1.0) == pytest.approx(PREFACTOR_K1, rel=1e-14)
    ks = np.array([1.0, 4.0])
    vals = energy_prefactor(m, ks)
    assert vals[0] == pytest.approx(PREFACTOR_K1, rel=1e-14)
    assert vals[1] == pytest.approx(PREFACTOR_K1 / 2.0, rel=1e-14)
    assert isinstance(energy_prefactor(m, 2.0), float)


def test_plane_wave_normalization():
    # <p|f> is the overlap of f with e^{ipx/hbar} / sqrt(2 pi hbar).
    m = BarrierModel()
    f = build_test_function(m, GaussianPacket(center=-20.0, width=1.0,
                                              momentum=3.0))
    amp = momentum_transform(f, "analysis", QuadratureSpec())
    lo, hi = f.support_interval(40.0)
    for p in (0.0, 1.5, 3.0, -2.0):
        def overlap(x, p=p):
            plane = np.exp(1j * p * x / m.hbar) * INV_SQRT_2PI
            return np.conj(plane) * evaluate(f, x)

        ref = quad_complex(overlap, lo, hi, epsabs=1e-13, epsrel=1e-12)
        assert abs(amp.amplitude(p) - ref) < 1e-10


@pytest.mark.parametrize("channel", [Channel.LEFT, Channel.RIGHT])
@pytest.mark.parametrize("energy", [0.7, 2.6, 14.0])
def test_continuity_at_steps(channel, energy):
    m = BarrierModel()
    eps = 1e-9
    for step in (m.a, m.b):
        around = scattering_wave(m, energy, channel, SignLabel.PLUS,
                                 np.array([step - eps, step, step + eps]))
        assert abs(around[0] - around[1]) < 5e-8
        assert abs(around[2] - around[1]) < 5e-8


@pytest.mark.parametrize("channel", [Channel.LEFT, Channel.RIGHT])
@pytest.mark.parametrize("energy", [0.8, 3.1])
@pytest.mark.parametrize("x0", [-2.3, 0.4, 1.9])
def test_satisfies_the_stationary_equation(channel, energy, x0):
    m = BarrierModel()

    def psi(x):
        return scattering_wave(m, energy, channel, SignLabel.PLUS,
                               float(x), include_prefactor=False)

    second = fd_derivative(psi, x0, 2, h=1e-4)
    potential = m.v0 if m.a <= x0 <= m.b else 0.0
    lhs = -m.hbar**2 / (2.0 * m.mass) * second + potential * psi(x0)
    assert abs(lhs - energy * psi(x0)) < 2e-6


@pytest.mark.parametrize("channel", [Channel.LEFT, Channel.RIGHT])
def test_minus_family_is_pointwise_conjugate(channel):
    m = BarrierModel()
    x = np.linspace(-4.0, 5.0, 57)
    plus = scattering_wave(m, 1.4, channel, SignLabel.PLUS, x)
    minus = scattering_wave(m, 1.4, channel, SignLabel.MINUS, x)
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-14


def test_prefactor_factorizes():
    m = BarrierModel()
    x = np.linspace(-3.0, 4.0, 11)
    bare = scattering_wave(m, 2.9, Channel.LEFT, SignLabel.PLUS, x,
                           include_prefactor=False)
    full = scattering_wave(m, 2.9, Channel.LEFT, SignLabel.PLUS, x)
    k = math.sqrt(2.9)
    assert np.allclose(full, bare * energy_prefactor(m, k), rtol=1e-13)


def test_free_model_reduces_to_plane_waves():
    m = BarrierModel(v0=0.0)
    x = np.linspace(-5.0, 5.0, 41)
    wave = scattering_wave(m, 4.0, Channel.LEFT, SignLabel.PLUS, x,
                           include_prefactor=False)
    assert np.max(np.abs(wave - np.exp(2j * x))) < 1e-12
    wave_r = scattering_wave(m, 4.0, Channel.RIGHT, SignLabel.PLUS, x,
                             include_prefactor=False)
    assert np.max(np.abs(wave_r - np.exp(-2j * x))) < 1e-12


def test_evanescent_interior_decays():
    # Tunneling at E < V0: the right-channel wave decays from b toward a.
    m = BarrierModel()
    x = np.linspace(m.a + 1e-6, m.b - 1e-6, 101)
    mag = np.abs(scattering_wave(m, 1.0, Channel.RIGHT, SignLabel.PLUS, x))
    assert np.all(np.diff(mag) > 0.0)
    mag_l = np.abs(scattering_wave(m, 1.0, Channel.LEFT, SignLabel.PLUS, x))
    assert np.all(np.diff(mag_l) < 0.0)


def test_values_at_steps_are_finite():
    m = BarrierModel()
    for energy in (0.5, 2.0, 2.0000000001, 9.0):
        vals = scattering_wave(m, energy, Channel.LEFT, SignLabel.PLUS,
                               np.array([m.a, m.b]))
        assert np.all(np.isfinite(vals))

