"""Test-function space: exact evaluation, observables, seminorms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from barrierkets import (
    BarrierModel,
    CapabilityError,
    DomainError,
    GaussianPacket,
    Observable,
    QuadratureSpec,
    apply_observable,
    build_test_function,
    evaluate,
    inner_product,
    lincomb,
    potential_at,
    seminorm,
    slow_decay_example,
)
from oracles import hermite_gauss_norm_sq, mp_derivative, packet_expression, \
    quad_complex

MODEL = BarrierModel()
SPEC = QuadratureSpec()
PACKET = GaussianPacket(center=-20.0, width=1.0, momentum=3.0)
NEAR_PACKET = GaussianPacket(center=2.5, width=1.5, momentum=-2.0,
                             poly_degree=1)


def _pointwise(packet):
    g = packet_expression(MODEL, packet)
    return lambda x: complex(g(x))


@pytest.mark.parametrize("packet", [PACKET, NEAR_PACKET])
def test_values_match_closed_form(packet):
    f = build_test_function(MODEL, packet)
    direct = _pointwise(packet)
    xs = np.array([packet.center - 1.3, packet.center, packet.center + 0.7,
                   0.31, 0.995, 1.2])
    vals = evaluate(f, xs)
    for x, v in zip(xs, vals):
        ref = direct(float(x))
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 10, 16])
@pytest.mark.parametrize("x0", [-20.6, 0.42, 2.1])
def test_derivatives_match_mpmath(order, x0):
    packet = GaussianPacket(center=-20.0, width=1.0, momentum=2.0)
    if x0 > 0.0:
        packet = GaussianPacket(center=1.9, width=0.8, momentum=-1.0)
    f = build_test_function(MODEL, packet)
    lib = evaluate(f, x0, order)
    ref = mp_derivative(packet_expression(MODEL, packet), x0, order)
    scale = max(abs(ref), 1.0)
    assert abs(lib - ref) <= 1e-9 * scale


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_vanishes_at_both_steps_to_all_orders(order):
    f = build_test_function(MODEL, NEAR_PACKET)
    assert evaluate(f, MODEL.a, order) == 0.0
    assert evaluate(f, MODEL.b, order) == 0.0


def test_position_observable_multiplies_by_x():
    f = build_test_function(MODEL, NEAR_PACKET)
    qf = apply_observable(Observable.Q, f)
    xs = np.array([-1.7, 0.3, 0.9, 2.4, 4.0])
    assert np.allclose(evaluate(qf, xs), xs * evaluate(f, xs),
                       rtol=1e-12, atol=1e-300)


def test_momentum_observable_is_gradient():
    f = build_test_function(MODEL, PACKET)
    pf = apply_observable(Observable.P, f)
    direct = packet_expression(MODEL, PACKET)
    for x0 in (-21.0, -19.4):
        ref = -1j * MODEL.hbar * mp_derivative(direct, x0, 1)
        assert abs(evaluate(pf, x0) - ref) < 1e-10


@pytest.mark.parametrize("x0", [-0.8, 0.37, 0.77, 1.9])
def test_hamiltonian_observable_pointwise(x0):
    f = build_test_function(MODEL, NEAR_PACKET)
    hf = apply_observable(Observable.H, f)
    direct = packet_expression(MODEL, NEAR_PACKET)
    kinetic = -MODEL.hbar**2 / (2.0 * MODEL.mass) * mp_derivative(direct, x0, 2)
    ref = kinetic + potential_at(MODEL, x0) * complex(direct(x0))
    assert abs(evaluate(hf, x0) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_hamiltonian_image_still_vanishes_at_steps():
    f = build_test_function(MODEL, NEAR_PACKET)
    hf = apply_observable(Observable.H, f)
    for order in (0, 1, 2):
        assert evaluate(hf, MODEL.a, order) == 0.0
        assert evaluate(hf, MODEL.b, order) == 0.0


def test_norm_against_quad_oracle():
    f = build_test_function(MODEL, PACKET)
    direct = _pointwise(PACKET)
    ref = quad_complex(lambda x: abs(direct(x)) ** 2 + 0j, -28.0, -12.0)
    lib = inner_product(f, f, SPEC)
    assert lib.real == pytest.approx(ref.real, rel=1e-10)
    assert abs(lib.imag) < 1e-12


def test_cross_inner_product_against_quad_oracle():
    f = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    g = build_test_function(MODEL,
                            GaussianPacket(center=-19.0, width=2.0,
                                           momentum=1.0))
    fd = _pointwise(GaussianPacket(center=-20.0, width=1.0))
    gd = _pointwise(GaussianPacket(center=-19.0, width=2.0, momentum=1.0))
    ref = quad_complex(lambda x: np.conj(fd(x)) * gd(x), -32.0, -8.0)
    lib = inner_product(f, g, SPEC)
    assert abs(lib - ref) < 1e-10


def test_far_packet_norm_is_nearly_gaussian():
    # 20 sigma from the barrier the windows shave only a few 1e-5 off the
    # plain Gaussian norm, and always downward.
    f = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    lib = inner_product(f, f, SPEC).real
    plain = hermite_gauss_norm_sq(1.0, 0)
    assert lib < plain
    assert lib == pytest.approx(plain, rel=2e-4)


def test_disjoint_supports_give_zero():
    f = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    g = build_test_function(MODEL, GaussianPacket(center=21.0, width=1.0))
    assert inner_product(f, g, SPEC) == 0.0


def test_seminorms_finite_and_capped():
    f = build_test_function(MODEL, PACKET)
    val = seminorm(f, 1, 1, 1, SPEC)
    assert math.isfinite(val) and val > 0.0
    assert seminorm(f, 0, 0, 0, SPEC) == pytest.approx(
        math.sqrt(inner_product(f, f, SPEC).real), rel=1e-9)
    with pytest.raises(CapabilityError):
        seminorm(f, f.order_cap + 1, 0, 0, SPEC)
    with pytest.raises(DomainError):
        seminorm(f, -1, 0, 0, SPEC)


def test_seminorm_composition_order():
    # The (n, m, l) seminorm applies H first, then Q, then P.
    f = build_test_function(MODEL, NEAR_PACKET)
    g = apply_observable(Observable.H, f)
    g = apply_observable(Observable.Q, g)
    g = apply_observable(Observable.P, g)
    direct = math.sqrt(inner_product(g, g, SPEC).real)
    assert seminorm(f, 1, 1, 1, SPEC) == pytest.approx(direct, rel=1e-9)


def test_support_interval_brackets_the_mass():
    f = build_test_function(MODEL, PACKET)
    lo, hi = f.support_interval(SPEC.spatial_radius)
    assert lo < -20.0 < hi
    tail = abs(evaluate(f, hi + 0.5))
    assert tail < 1e-15


def test_packet_serialization_round_trip():
    p = GaussianPacket(center=1.5, width=0.5, momentum=-2.0, poly_degree=2)
    assert GaussianPacket.from_dict(p.to_dict()) == p
    with pytest.raises(DomainError):
        GaussianPacket.from_dict({"kind": "plane", "center": 0.0, "width": 1.0})
    with pytest.raises(DomainError):
        GaussianPacket.from_dict({"kind": "gaussian_packet", "center": 0.0,
                                  "width": 1.0, "spin": 1})


def test_build_rejects_bad_packets():
    with pytest.raises(DomainError):
        build_test_function(MODEL, GaussianPacket(center=0.0, width=0.0))
    with pytest.raises(DomainError):
        build_test_function(MODEL, GaussianPacket(center=0.0, width=1.0,
                                                  poly_degree=-1))


@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
@example(0j, 2.2250738585e-313 + 0j)
def test_lincomb_is_pointwise_linear(alpha, beta):
    f = build_test_function(MODEL, GaussianPacket(center=-20.0, width=1.0))
    g = build_test_function(MODEL, GaussianPacket(center=-19.0, width=2.0,
                                                  momentum=1.0))
    h = lincomb(alpha, f, beta, g)
    xs = np.array([-21.0, -19.5, -18.0])
    expect = alpha * evaluate(f, xs) + beta * evaluate(g, xs)
    assert np.allclose(evaluate(h, xs), expect, rtol=1e-12, atol=1e-18)
    # H acts linearly across both envelopes and the block clipped to [a, b].
    xh = np.append(xs, 0.5 * (MODEL.a + MODEL.b))
    hh = evaluate(apply_observable(Observable.H, h), xh)
    expect_h = alpha * evaluate(apply_observable(Observable.H, f), xh) \
        + beta * evaluate(apply_observable(Observable.H, g), xh)
    assert np.max(np.abs(hh - expect_h)) <= 1e-10 * np.max(np.abs(expect_h))


def test_scaled_multiplies_values():
    f = build_test_function(MODEL, PACKET)
    g = f.scaled(2.5j)
    xs = np.array([-20.4, -19.8])
    assert np.allclose(evaluate(g, xs), 2.5j * evaluate(f, xs), rtol=1e-14)


def test_slow_decay_example_values():
    g = slow_decay_example(MODEL)
    xs = np.array([-3.0, 0.0, 7.0])
    assert np.allclose(evaluate(g, xs), 1.0 / (xs + 1j), rtol=1e-13)


def test_lincomb_rejects_model_mixing():
    f = build_test_function(MODEL, PACKET)
    other = build_test_function(BarrierModel(v0=3.0), PACKET)
    with pytest.raises(DomainError):
        lincomb(1.0, f, 1.0, other)
    with pytest.raises(DomainError):
        inner_product(f, other, SPEC)
