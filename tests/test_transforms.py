"""Spectral expansions: amplitudes, reconstruction, Parseval, probability."""

import math

import numpy as np
import pytest

from barrierkets import (
    BarrierModel,
    Channel,
    DomainError,
    GaussianPacket,
    Observable,
    QuadratureSpec,
    SignLabel,
    apply_observable,
    build_test_function,
    energy_transform,
    evaluate,
    expectation_uncertainty,
    inner_product,
    integrate_energy,
    momentum_transform,
    parseval_defect,
    scattering_wave,
    spectral_matrix_element,
    spectral_probability,
    synthesize_energy,
    synthesize_momentum,
)
from barrierkets import transforms
from oracles import quad_complex

MODEL = BarrierModel()
SPEC = QuadratureSpec()
PACKET = GaussianPacket(center=-20.0, width=1.0, momentum=3.0)


@pytest.fixture(scope="module")
def f():
    return build_test_function(MODEL, PACKET)


@pytest.fixture(scope="module")
def amp(f):
    return energy_transform(f, SignLabel.PLUS, SPEC)


def _direct_amplitude(f, energy, channel, sign):
    lo, hi = f.support_interval(SPEC.spatial_radius)

    def integrand(x):
        wave = scattering_wave(MODEL, energy, channel, sign, float(x))
        return np.conj(wave) * complex(evaluate(f, float(x)))

    return quad_complex(integrand, lo, hi, limit=800)


@pytest.mark.parametrize("energy", [1.0, 6.5, 14.0])
@pytest.mark.parametrize("channel", [Channel.LEFT, Channel.RIGHT])
def test_amplitude_matches_direct_integral(f, amp, energy, channel):
    ref = _direct_amplitude(f, energy, channel, SignLabel.PLUS)
    assert abs(amp.amplitude(energy, channel) - ref) < 1e-9


def test_minus_amplitude_matches_direct_integral(f):
    amp_m = energy_transform(f, SignLabel.MINUS, SPEC)
    ref = _direct_amplitude(f, 2.7, Channel.RIGHT, SignLabel.MINUS)
    assert abs(amp_m.amplitude(2.7, Channel.RIGHT) - ref) < 1e-9


def test_amplitude_scales_linearly(f):
    # The cache normalizes by a sup-norm estimate; the assembled amplitude
    # must still be exactly linear in the input function.
    g = f.scaled(37.5)
    amp_f = energy_transform(f, SignLabel.PLUS, SPEC)
    amp_g = energy_transform(g, SignLabel.PLUS, SPEC)
    for energy in (0.9, 8.0):
        a = amp_f.amplitude(energy, Channel.LEFT)
        b = amp_g.amplitude(energy, Channel.LEFT)
        assert abs(b - 37.5 * a) <= 1e-12 * max(1.0, abs(b))


def test_amplitude_rejects_nonpositive_energy(amp):
    with pytest.raises(DomainError):
        amp.amplitude(0.0, Channel.LEFT)
    with pytest.raises(DomainError):
        amp.amplitude(np.array([1.0, -2.0]), Channel.LEFT)


def test_amplitude_vanishes_past_cutoff(amp):
    assert amp.amplitude(amp.e_cut * 1.5, Channel.LEFT) == 0.0


def test_round_trip_reconstruction(f, amp):
    lo, hi = f.support_interval(SPEC.spatial_radius)
    probes = np.linspace(lo, hi, 50)
    recon = synthesize_energy(amp, probes, SPEC)
    norm = math.sqrt(inner_product(f, f, SPEC).real)
    err = np.max(np.abs(recon - evaluate(f, probes)))
    assert err < 1e-6 * norm


def test_single_channel_breaks_reconstruction():
    # A zero-boost packet splits between +k and -k, so each channel carries
    # about half of it and neither alone can reproduce the function.
    g = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    amp_g = energy_transform(g, SignLabel.PLUS, SPEC)
    probes = np.linspace(-22.0, -18.0, 21)
    norm = math.sqrt(inner_product(g, g, SPEC).real)
    for kept in (Channel.LEFT, Channel.RIGHT):
        partial = synthesize_energy(amp_g, probes, SPEC, channels=(kept,))
        err = np.max(np.abs(partial - evaluate(g, probes)))
        assert err > 0.1 * norm


@pytest.mark.parametrize("basis", ["position", "momentum", "energy+", "energy-"])
def test_parseval(basis, f):
    g = build_test_function(
        MODEL, GaussianPacket(center=-19.0, width=2.0, momentum=-1.0))
    tol = 1e-8 if basis in ("position", "momentum") else 1e-6
    scale = abs(inner_product(f, f, SPEC).real)
    assert parseval_defect(f, g, basis, SPEC) < tol * max(1.0, scale)


def test_parseval_rejects_unknown_basis(f):
    with pytest.raises(DomainError):
        parseval_defect(f, f, "chromatic", SPEC)


def test_momentum_amplitude_matches_fourier(f):
    amp_p = momentum_transform(f, "analysis", SPEC)
    lo, hi = f.support_interval(SPEC.spatial_radius)
    scale = 1.0 / math.sqrt(2.0 * math.pi * MODEL.hbar)
    for p in (-2.0, 0.0, 3.0, 4.5):
        ref = quad_complex(
            lambda x: scale * np.exp(-1j * p * x / MODEL.hbar)
            * complex(evaluate(f, float(x))),
            lo, hi, limit=800)
        assert abs(amp_p.amplitude(p) - ref) < 1e-9


def test_momentum_round_trip(f):
    synth = momentum_transform(f, "synthesis", SPEC)
    xs = np.linspace(-23.0, -17.0, 31)
    err = np.max(np.abs(synth(xs) - evaluate(f, xs)))
    assert err < 1e-8


def test_momentum_transform_rejects_unknown_direction(f):
    with pytest.raises(DomainError):
        momentum_transform(f, "sideways", SPEC)


def test_synthesize_momentum_entry_point(f):
    amp_p = momentum_transform(f, "analysis", SPEC)
    x0 = -20.3
    val = synthesize_momentum(amp_p, x0, SPEC)
    assert abs(val - complex(evaluate(f, x0))) < 1e-8


def test_energy_synthesis_of_no_positions_is_empty(amp):
    out = synthesize_energy(amp, np.array([]), SPEC)
    assert out.shape == (0,) and out.dtype == complex


def test_momentum_synthesis_of_no_positions_is_empty(f):
    amp_p = momentum_transform(f, "analysis", SPEC)
    out = synthesize_momentum(amp_p, np.array([]), SPEC)
    assert out.shape == (0,) and out.dtype == complex


@pytest.mark.parametrize("name", ["evaluate", "synthesize_energy",
                                  "synthesize_momentum"])
def test_positions_of_any_shape(f, amp, name):
    call = {
        "evaluate": lambda x: evaluate(f, x),
        "synthesize_energy": lambda x: synthesize_energy(amp, x, SPEC),
        "synthesize_momentum": lambda x: synthesize_momentum(
            momentum_transform(f, "analysis", SPEC), x, SPEC),
    }[name]
    x = np.linspace(-21.0, -19.0, 6)
    grid = call(x.reshape(2, 3))
    assert grid.shape == (2, 3)
    assert np.array_equal(grid, call(x).reshape(2, 3))


def test_uncertainty_product_is_minimal():
    plain = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    q_mean, q_spread = expectation_uncertainty(Observable.Q, plain, SPEC)
    p_mean, p_spread = expectation_uncertainty(Observable.P, plain, SPEC)
    # The windows shave a few 1e-6 of mass off the barrier-facing tail, so
    # the moments sit that far from the pure-Gaussian values.
    assert q_mean == pytest.approx(-20.0, abs=1e-5)
    assert p_mean == pytest.approx(0.0, abs=1e-6)
    # Width w means exp(-((x-c)/w)^2): position spread w/2, momentum spread
    # hbar/w, so the product saturates hbar/2.
    assert q_spread == pytest.approx(0.5, rel=1e-5)
    assert p_spread == pytest.approx(1.0, rel=1e-5)
    assert q_spread * p_spread == pytest.approx(MODEL.hbar / 2.0, rel=1e-5)


def test_boost_shifts_momentum_mean(f):
    p_mean, _ = expectation_uncertainty(Observable.P, f, SPEC)
    assert p_mean == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("observable", [Observable.Q, Observable.P,
                                        Observable.H])
def test_spectral_matrix_element_matches_direct(observable, f):
    g = build_test_function(
        MODEL, GaussianPacket(center=-20.5, width=1.5, momentum=2.0))
    spectral = spectral_matrix_element(observable, f, g, SPEC)
    direct = inner_product(f, apply_observable(observable, g), SPEC)
    assert abs(spectral - direct) < 1e-7 * max(1.0, abs(direct))


def test_total_probability_of_normalized_packet(f):
    norm = math.sqrt(inner_product(f, f, SPEC).real)
    fn = f.scaled(1.0 / norm)
    prob = spectral_probability(fn, 0.0, math.inf, SignLabel.PLUS, SPEC)
    assert prob == pytest.approx(1.0, abs=1e-6)


def test_probability_additivity_and_details(f):
    norm = math.sqrt(inner_product(f, f, SPEC).real)
    fn = f.scaled(1.0 / norm)
    total, info = spectral_probability(fn, 0.0, math.inf, SignLabel.PLUS,
                                       SPEC, details=True)
    low = spectral_probability(fn, 0.0, 9.0, SignLabel.PLUS, SPEC)
    high = spectral_probability(fn, 9.0, math.inf, SignLabel.PLUS, SPEC)
    assert low + high == pytest.approx(total, abs=1e-8)
    assert set(info) == {"e_cut", "tail_estimate", "per_channel", "norm_sq"}
    assert info["tail_estimate"] < 1e-12
    assert info["per_channel"]["left"] + info["per_channel"]["right"] == \
        pytest.approx(total, rel=1e-12)


def test_probability_per_channel_matches_channel_integrals(f):
    fn = f.scaled(1.0 / math.sqrt(inner_product(f, f, SPEC).real))
    _, info = spectral_probability(fn, 1.0, 12.0, SignLabel.PLUS, SPEC,
                                   details=True)
    unit = energy_transform(fn, SignLabel.PLUS, SPEC)
    for channel in Channel:
        ref = integrate_energy(
            lambda e: np.abs(unit.amplitude(e, channel)) ** 2 + 0j, SPEC,
            hbar=MODEL.hbar, mass=MODEL.mass, e_lo=1.0, e_hi=12.0,
            freq_hint=2.0 * unit.osc_hint).value.real
        assert info["per_channel"][channel.value] == pytest.approx(
            ref, abs=1e-12)


def test_probability_of_window_past_cutoff_is_zero(f, monkeypatch):
    fn = f.scaled(1.0 / math.sqrt(inner_product(f, f, SPEC).real))
    e_cut = energy_transform(fn, SignLabel.PLUS, SPEC).e_cut

    def no_integral(*args, **kwargs):
        raise AssertionError("an empty window needs no integral")

    monkeypatch.setattr(transforms, "integrate_energy", no_integral)
    prob, info = spectral_probability(fn, 2.0 * e_cut, 3.0 * e_cut,
                                      SignLabel.PLUS, SPEC, details=True)
    assert prob == 0.0
    assert info["per_channel"] == {"left": 0.0, "right": 0.0}


def test_probability_sign_families_agree(f):
    norm = math.sqrt(inner_product(f, f, SPEC).real)
    fn = f.scaled(1.0 / norm)
    p_plus = spectral_probability(fn, 1.0, 12.0, SignLabel.PLUS, SPEC)
    p_minus = spectral_probability(fn, 1.0, 12.0, SignLabel.MINUS, SPEC)
    assert p_plus == pytest.approx(p_minus, abs=1e-6)


def test_probability_requires_normalization(f):
    with pytest.raises(DomainError):
        spectral_probability(f, 0.0, 1.0, SignLabel.PLUS, SPEC)


def test_probability_rejects_bad_window(f):
    norm = math.sqrt(inner_product(f, f, SPEC).real)
    fn = f.scaled(1.0 / norm)
    with pytest.raises(DomainError):
        spectral_probability(fn, -1.0, 2.0, SignLabel.PLUS, SPEC)
    with pytest.raises(DomainError):
        spectral_probability(fn, 3.0, 3.0, SignLabel.PLUS, SPEC)


def test_transform_caches_are_reused(f):
    first = energy_transform(f, SignLabel.PLUS, SPEC)
    second = energy_transform(f, SignLabel.PLUS, SPEC)
    assert first is second
    third = momentum_transform(f, "analysis", SPEC)
    fourth = momentum_transform(f, "analysis", SPEC)
    assert third is fourth


def test_interp_error_report(amp):
    assert 0.0 < amp.max_interp_error < 1e-9
    assert amp.cache_points > 100
