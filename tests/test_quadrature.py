"""Quadrature layer against closed forms and scipy.integrate.quad."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barrierkets import (
    AccuracyError,
    BarrierModel,
    DomainError,
    GaussianPacket,
    QuadratureSpec,
    build_test_function,
    integrate_energy,
    integrate_energy_batch,
    integrate_line,
    integrate_line_batch,
    seminorm,
)
from barrierkets import testspace

SQRT_PI = 1.7724538509055160273
# integral of exp(-x^2) * exp(5ix) over the line: sqrt(pi) e^{-25/4}
GAUSS_MODULATED = 0.0034216408677532848834
# integral of 3x^5 - 2x^4 + x^3 - x + 7 over [-1, 2]
QUINTIC = 41.55
# integral of e^{i 50 x} over [0, 1]
OSC_RE = -0.0052474970740785757183
OSC_IM = 0.0007006794301577345186


@pytest.fixture(scope="module")
def spec():
    return QuadratureSpec()


def test_plain_gaussian(spec):
    res = integrate_line(lambda x: np.exp(-x * x) + 0j, spec)
    assert res.value.real == pytest.approx(SQRT_PI, abs=1e-12)
    assert abs(res.value.imag) < 1e-12
    assert res.error <= max(spec.abs_tol, spec.rel_tol * SQRT_PI)


def test_modulated_gaussian(spec):
    res = integrate_line(lambda x: np.exp(-x * x + 5j * x), spec,
                         freq_hint=5.0)
    assert res.value.real == pytest.approx(GAUSS_MODULATED, abs=1e-12)
    assert abs(res.value.imag) < 1e-12


def test_polynomial_on_interval(spec):
    res = integrate_line(
        lambda x: 3 * x**5 - 2 * x**4 + x**3 - x + 7 + 0j, spec,
        lo=-1.0, hi=2.0)
    assert res.value.real == pytest.approx(QUINTIC, rel=1e-14)


def test_high_frequency_phase(spec):
    res = integrate_line(lambda x: np.exp(50j * x), spec, lo=0.0, hi=1.0,
                         freq_hint=50.0)
    assert res.value.real == pytest.approx(OSC_RE, abs=1e-13)
    assert res.value.imag == pytest.approx(OSC_IM, abs=1e-13)


def test_batch_matches_scalar(spec):
    # One entry point takes both shapes and returns the shape it got; the
    # batch name is the same function.
    assert integrate_line_batch is integrate_line
    freqs = np.array([0.0, 1.0, 3.0, 7.0])

    def g(x):
        return np.exp(-x[:, None] ** 2) * np.exp(1j * np.outer(x, freqs))

    vals, errs, _ = integrate_line(g, spec, lo=-9.0, hi=9.0, freq_hint=7.0)
    assert vals.shape == errs.shape == freqs.shape
    for i, w in enumerate(freqs):
        single = integrate_line(lambda x, w=w: np.exp(-x * x + 1j * w * x),
                                spec, lo=-9.0, hi=9.0, freq_hint=float(w))
        assert type(single.value) is complex and type(single.error) is float
        assert abs(vals[i] - single.value) < 5e-12
    assert np.all(errs <= max(spec.abs_tol, 1e-9))


def test_energy_measure_is_plain_de(spec):
    # g(E) = 1 integrated dE over [0, 4] is 4, even though the working
    # variable is k; the substitution must absorb the 1/sqrt(E) edge.
    res = integrate_energy(lambda e: np.ones_like(e) + 0j, spec, e_lo=0.0,
                           e_hi=4.0)
    assert res.value.real == pytest.approx(4.0, rel=1e-12)


def test_energy_sqrt_moment(spec):
    res = integrate_energy(lambda e: np.sqrt(e) + 0j, spec, e_lo=0.0,
                           e_hi=9.0)
    assert res.value.real == pytest.approx(18.0, rel=1e-12)


def test_energy_batch_matches_scalar(spec):
    assert integrate_energy_batch is integrate_energy
    powers = np.array([0.5, 1.0, 2.0])

    def g(e):
        return e[:, None] ** powers[None, :] + 0j

    vals, errs, _ = integrate_energy(g, spec, e_lo=0.0, e_hi=2.0)
    assert vals.shape == errs.shape == powers.shape
    expect = [2.0 ** (p + 1) / (p + 1) for p in powers]
    assert np.allclose(vals.real, expect, rtol=1e-11)
    single = integrate_energy(lambda e: e + 0j, spec, e_lo=0.0, e_hi=2.0)
    assert type(single.value) is complex and type(single.error) is float
    assert abs(single.value - vals[1]) < 1e-11


def test_empty_interval_calls_no_integrand(spec):
    # An empty interval is one scalar zero, whatever shape the integrand
    # would return; the last window starts past E(k_max) = k_max^2 (hbar 1,
    # mass 1/2), where it is empty in k.
    def batched(x):
        raise AssertionError("an empty interval needs no integrand call")

    assert integrate_line(batched, spec, lo=1.0, hi=1.0) == (0j, 0.0, 0)
    assert integrate_energy(batched, spec, e_lo=2.0, e_hi=2.0) == (0j, 0.0, 0)
    e_past = 2.0 * spec.k_max ** 2
    assert integrate_energy(batched, spec, e_lo=e_past) == (0j, 0.0, 0)


def test_default_truncation_radius(spec):
    # A constant integrand measures the default line truncation.
    res = integrate_line(lambda x: np.ones_like(x) + 0j, spec)
    assert res.value.real == pytest.approx(2.0 * spec.spatial_radius, rel=1e-13)


def test_failure_carries_best_estimate():
    tiny = QuadratureSpec(abs_tol=1e-300, rel_tol=0.0, max_subdivisions=8)
    with pytest.raises(AccuracyError) as exc_info:
        integrate_line(lambda x: np.exp(-x * x) + 0j, tiny)
    err = exc_info.value
    assert err.value is not None
    assert abs(err.value.real - SQRT_PI) < 1e-6
    assert err.error is not None and err.error > 0.0


def test_stalled_refinement_raises_early(monkeypatch):
    # Order 16 next to the barrier: the evaluation noise of the integrand
    # keeps the error estimate near 3e-9 of the value at every panel count.
    # The refinement must give up with its estimate long before the panel
    # cap, which allows 64 new nodes per panel, would stop it.
    spec = QuadratureSpec()
    f = build_test_function(BarrierModel(), GaussianPacket(-5.0, 1.0))
    evaluate = testspace.evaluate
    evaluations = []

    def counting_evaluate(g, x):
        evaluations.append(np.size(x))
        return evaluate(g, x)

    monkeypatch.setattr(testspace, "evaluate", counting_evaluate)
    with pytest.raises(AccuracyError) as exc_info:
        seminorm(f, 0, 0, 8, spec)
    err = exc_info.value
    # The squared seminorm, 3.8334309141e27 ** 2 by runs at looser rel_tol.
    assert err.value.real == pytest.approx(1.46952e55, rel=1e-5)
    assert math.isfinite(err.error) and err.error > 0.0
    # The integrand evaluates f's image twice per node.
    assert sum(evaluations) // 2 < 64 * spec.max_subdivisions // 4


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(spatial_radius=-1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "spatial_radius",
                                   "k_max", "max_subdivisions"])
def test_spec_refuses_non_finite_fields(field, value):
    # Every comparison with nan is false and inf passes the positivity
    # tests, so these would otherwise slip through validation.
    with pytest.raises(DomainError, match=field):
        QuadratureSpec(**{field: value})


def test_spec_accepts_any_int_budget():
    assert QuadratureSpec(max_subdivisions=10 ** 400).max_subdivisions == 10 ** 400


def test_spec_serialization_round_trip():
    spec = QuadratureSpec(abs_tol=1e-8, k_max=20.0)
    assert QuadratureSpec.from_dict(spec.to_dict()) == spec
    assert QuadratureSpec.from_json(spec.to_json()) == spec
    with pytest.raises(DomainError):
        QuadratureSpec.from_dict({"abs_tol": 1e-8, "bogus": 1})


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                min_size=2, max_size=6))
def test_polynomial_linearity(coeffs):
    spec = QuadratureSpec()
    poly = np.polynomial.Polynomial(coeffs)
    res = integrate_line(lambda x: poly(x) + 0j, spec, lo=-2.0, hi=3.0)
    expect = poly.integ()(3.0) - poly.integ()(-2.0)
    assert res.value.real == pytest.approx(expect, abs=1e-10, rel=1e-12)


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.0))
def test_interval_additivity(mid_frac, span):
    spec = QuadratureSpec()
    lo, hi = -span, span
    mid = mid_frac * span / 5.0

    def f(x):
        return np.exp(-0.3 * x * x) * np.cos(x) + 0j

    whole = integrate_line(f, spec, lo=lo, hi=hi).value
    left = integrate_line(f, spec, lo=lo, hi=mid).value
    right = integrate_line(f, spec, lo=mid, hi=hi).value
    assert abs(whole - (left + right)) < 5e-12
