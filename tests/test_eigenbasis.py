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
from barrierkets.eigenbasis import _cis, _panel_waves
from barrierkets.quadrature import _GL_X, _PARTS_X
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



def _refined_panels(lo, hi):
    """Middles and half-widths of six equal panels after two refinement
    levels: the second split in two, and the left half split again."""
    edges = np.linspace(lo, hi, 7)
    quarter = edges[1] + 0.25 * (edges[2] - edges[1])
    middle = 0.5 * (edges[1] + edges[2])
    a = np.concatenate([edges[[0, 2, 3, 4, 5]], [middle, edges[1], quarter]])
    b = np.concatenate([edges[[1, 3, 4, 5, 6]], [edges[2], quarter, middle]])
    return 0.5 * (a + b), 0.5 * (b - a)


@pytest.mark.parametrize("lo, hi, origin, offsets, top", [
    # Synthesis panels in k, whole panels and their halves one row each,
    # against positions.
    (0.0, 6.0, 0.0, _PARTS_X, 25.0),
    # A Fourier rule on a region left of the barrier, demodulated by its
    # middle, against wave numbers up to the default k_max.  Without the
    # two-sum correction of the nodes' rounding this case misses the bound.
    (-23.0, -15.0, -19.0, _GL_X, 40.0),
])
def test_panel_waves_match_direct_contraction(lo, hi, origin, offsets, top):
    mid, half = _refined_panels(lo, hi)
    assert np.unique(half).size >= 3
    freqs = np.concatenate([-np.geomspace(top, 0.01, 20), [0.0],
                            np.geomspace(0.01, top, 20)])
    rng = np.random.default_rng(3)
    shape = offsets.shape[:-1] + (mid.size, offsets.shape[-1])
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nodes = mid[:, None] + half[:, None] * offsets[..., None, :]
    ref = np.einsum("...pt,...ptk->...pk", coef,
                    _cis((nodes - origin)[..., None] * freqs))
    got = _panel_waves(coef, mid, half, offsets, freqs, origin)
    scale = np.abs(coef).sum(axis=-1, keepdims=True)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
