"""Test-function space: exact evaluation, observables, seminorms."""

import math
import os
import subprocess
import sys

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
    SignLabel,
    apply_observable,
    build_test_function,
    check_invariance_battery,
    default_battery,
    energy_transform,
    evaluate,
    inner_product,
    lincomb,
    momentum_transform,
    seminorm,
    slow_decay_example,
)
import barrierkets
from barrierkets import quadrature, testspace as ts
from barrierkets import transforms as tr
from oracles import hermite_gauss_norm_sq, mp_derivative, mp_word, \
    packet_expression, quad_complex

MODEL = BarrierModel()
SPEC = QuadratureSpec()
PACKET = GaussianPacket(center=-20.0, width=1.0, momentum=3.0)
NEAR_PACKET = GaussianPacket(center=2.5, width=1.5, momentum=-2.0,
                             poly_degree=1)
# A packet from the gate's criterion-05 distribution.
GATE_PACKET = GaussianPacket(center=18.7, width=1.3, momentum=-2.6,
                             poly_degree=2)
# The seminorm table of criterion 09: every (n, m, l) with n + m + 2l <= 8.
C09_ORDERS = [(n, m, l) for l in range(5) for m in range(9) for n in range(9)
              if n + m + 2 * l <= 8]


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 10, 16])
@pytest.mark.parametrize("x0", [-20.6, -0.05, 0.42, 1.05, 2.1])
def test_derivatives_match_mpmath(order, x0):
    packet = GaussianPacket(center=-20.0, width=1.0, momentum=2.0)
    if x0 > -1.0:
        packet = GaussianPacket(center=1.9, width=0.8, momentum=-1.0)
    f = build_test_function(MODEL, packet)
    lib = evaluate(f, x0, order)
    ref = mp_derivative(packet_expression(MODEL, packet), x0, order)
    scale = max(abs(ref), 1.0)
    assert abs(lib - ref) <= 1e-9 * scale


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 8, 12, 16])
def test_vanishes_at_both_steps_to_all_orders(order):
    f = build_test_function(MODEL, NEAR_PACKET)
    assert evaluate(f, MODEL.a, order) == 0.0
    assert evaluate(f, MODEL.b, order) == 0.0
    # Where a window underflows next to a step, and far out, where the
    # squares of the envelope's exponent overflow, the value is an exact 0
    # too, with no RuntimeWarning.
    near = [MODEL.a - 1e-7, MODEL.a + 1e-300, MODEL.b - 1e-7, MODEL.b + 1e-3]
    assert np.array_equal(evaluate(f, near, order), np.zeros(4))
    far = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0, 2))
    assert np.array_equal(evaluate(far, [1e155, 1e200, -1e300], order),
                          np.zeros(3))


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
    potential = MODEL.v0 if MODEL.a <= x0 <= MODEL.b else 0.0
    ref = kinetic + potential * complex(direct(x0))
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
    for missing in ("center", "width"):
        data = {"kind": "gaussian_packet", "center": 0.0, "width": 1.0}
        del data[missing]
        with pytest.raises(DomainError, match=missing):
            GaussianPacket.from_dict(data)


def test_build_rejects_bad_packets():
    with pytest.raises(DomainError):
        build_test_function(MODEL, GaussianPacket(center=0.0, width=0.0))
    for degree in (-1, 1.5):
        with pytest.raises(DomainError):
            build_test_function(MODEL, GaussianPacket(center=0.0, width=1.0,
                                                      poly_degree=degree))
    for bad in ({"center": math.nan}, {"center": math.inf},
                {"momentum": math.nan}, {"momentum": -math.inf},
                {"center": "x"}, {"width": None}, {"width": 10 ** 400},
                {"momentum": 10 ** 400}, {"center": -10 ** 400}):
        with pytest.raises(DomainError, match="must be finite"):
            build_test_function(MODEL, GaussianPacket(
                **{"center": 0.0, "width": 1.0, **bad}))


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
    # H acts linearly across both packets, inside [a, b] too.
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


@pytest.mark.parametrize("call", [
    lambda g: inner_product(g, g, SPEC),
    lambda g: inner_product(build_test_function(MODEL, PACKET), g, SPEC),
    lambda g: seminorm(g, 0, 0, 0, SPEC),
    lambda g: apply_observable(Observable.Q, g),
    lambda g: lincomb(1.0, build_test_function(MODEL, PACKET), 1.0, g),
    lambda g: energy_transform(g, SignLabel.PLUS, SPEC),
    lambda g: momentum_transform(g, "analysis", SPEC),
    lambda g: check_invariance_battery(g, 2, SPEC),
], ids=["inner_product", "inner_product_mixed", "seminorm",
        "apply_observable", "lincomb", "energy_transform",
        "momentum_transform", "check_invariance_battery"])
def test_non_member_is_refused_with_a_typed_error(call):
    with pytest.raises(DomainError, match="only evaluate"):
        call(slow_decay_example(MODEL))


def _count_work(monkeypatch):
    """Record each evaluate call as (function, points), and the points of
    every integrand call the quadrature engine makes."""
    calls, nodes = [], []

    def counting_evaluate(f, x, n=0):
        calls.append((f, np.size(x)))
        return evaluate(f, x, n)

    def counting_panels(f, *args):
        def counted(x):
            nodes.append(np.size(x))
            return f(x)
        return eval_panels(counted, *args)

    eval_panels = quadrature._eval_panels
    monkeypatch.setattr(ts, "evaluate", counting_evaluate)
    monkeypatch.setattr(quadrature, "_eval_panels", counting_panels)
    return calls, nodes


def _count_values(monkeypatch):
    """Record each jet a packet computes as (packet, jet order, copy of
    the points), and the points of every round that the seminorm's panel
    evaluator integrates."""
    calls, nodes = [], []
    jet, eval_panels = ts._jet, ts._eval_panels

    def counting_jet(model, packet, x, order):
        calls.append((packet, order, x.copy()))
        return jet(model, packet, x, order)

    def counting_panels(f, *args):
        def counted(x):
            nodes.append(np.size(x))
            return f(x)
        return eval_panels(counted, *args)

    monkeypatch.setattr(ts, "_jet", counting_jet)
    monkeypatch.setattr(ts, "_eval_panels", counting_panels)
    return calls, nodes


def test_seminorm_samples_each_derivative_once_per_node(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    calls, nodes = _count_values(monkeypatch)
    seminorm(f, 1, 1, 1, SPEC)
    (packet,) = [t.packet for t in f.terms]
    assert calls and all(p == packet for p, _, _ in calls)
    # Every node gets one jet: of order 4 on the starting panels, which
    # every word of order 4 reads, and of order 3 after them, as far as
    # PQH f reads.
    assert calls[0][1] == 4 and {n for _, n, _ in calls[1:]} <= {3}
    x = np.concatenate([x for _, _, x in calls])
    assert x.size == np.unique(x).size == sum(nodes) > 0


def test_position_overlap_samples_f_once_per_node(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    calls, nodes = _count_work(monkeypatch)
    tr._position_overlap(f, f, SPEC, weight_power=2)
    assert all(g is f for g, _ in calls)
    assert sum(points for _, points in calls) == sum(nodes) > 0


def test_self_product_is_kept_per_spec(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    calls, _ = _count_work(monkeypatch)
    first = inner_product(f, f, SPEC)
    assert calls
    calls.clear()
    # Asked again, under the same spec or an equal one, nothing is sampled.
    assert inner_product(f, f, SPEC) == first
    assert inner_product(f, f, QuadratureSpec()) == first
    assert seminorm(f, 0, 0, 0, SPEC) == math.sqrt(first.real)
    assert calls == []
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    assert inner_product(f, f, tight) == pytest.approx(first, rel=1e-10)
    assert calls and all(g is f for g, _ in calls)


def test_equal_but_distinct_functions_are_both_sampled(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    g = build_test_function(MODEL, GATE_PACKET)
    calls, nodes = _count_work(monkeypatch)
    cross = inner_product(f, g, SPEC)
    points_f = sum(n for h, n in calls if h is f)
    points_g = sum(n for h, n in calls if h is g)
    assert points_f == points_g == sum(nodes) > 0
    # The one-sample integrand of (f, f) gives the same bits.
    assert inner_product(f, f, SPEC) == cross


def _spell(n, m, l):
    """The word P^n Q^m H^l, its last letter acting first."""
    return "P" * n + "Q" * m + "H" * l


def _symbolic(f, word):
    """The image of f under a word, built letter by letter."""
    for letter in reversed(word):
        f = apply_observable(Observable(letter), f)
    return f


def _image(f, n, m, l):
    """The symbolic image P^n Q^m H^l f."""
    return _symbolic(f, _spell(n, m, l))


def _image_values(f, word, x):
    """The word applied to f, on x, through its coefficients (ts._word)."""
    return ts._word_values(f, ts._groups(f, word), np.asarray(x, float), {})


def test_c09_table_matches_dense_reference():
    f = default_battery(MODEL)[1]
    table = [seminorm(f, n, m, l, SPEC) for n, m, l in C09_ORDERS]
    for (n, m, l), value in zip(C09_ORDERS, table):
        ref = _dense_split(_image(f, n, m, l))
        assert abs(value ** 2 - ref) <= max(SPEC.abs_tol, SPEC.rel_tol * ref)
        # The same bits on a fresh function: no value depends on what was
        # asked of f before.
        fresh = default_battery(MODEL)[1]
        assert seminorm(fresh, n, m, l, SPEC) == value


def _dense(values, lo, hi, per_unit=2000, model=MODEL, near=0.0):
    """Integral of |values(x)|^2 over [lo, hi] by a composite 24-point
    Gauss-Legendre rule, about per_unit nodes per unit length, cut at the
    model's a and b.  Within near of a step it takes eight times as many."""
    x24, w24 = np.polynomial.legendre.leggauss(24)
    steps = (model.a, model.b)
    marks = sorted({p + d for p in steps for d in (-near, 0.0, near)})
    cuts = [lo] + [p for p in marks if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        close = min(abs(0.5 * (a + b) - p) for p in steps) < near
        n = math.ceil((b - a) * per_unit * (8 if close else 1) / 24)
        half = 0.5 * (b - a) / n
        mid = a + 2.0 * half * (np.arange(n) + 0.5)
        v = values((mid[:, None] + half * x24).ravel())
        total += half * float(np.sum((np.abs(v) ** 2).reshape(n, 24) @ w24))
    return total


def _dense_split(g, near=0.0):
    """_dense of g over g's support."""
    return _dense(lambda x: evaluate(g, x),
                  *g.support_interval(SPEC.spatial_radius), model=g.model,
                  near=near)


# Seminorms of real width-w packets whose image H^l f peaks next to a step.
# Integrated as one interval, ||H^4 f||^2 of the packets at -6 and 7 came
# out 2538668.7351 against 2538669.0358, 1184 times its target off, and
# those at -5 and 6 three times; the others are the next worst cases of
# the sweep over centres -6 to 7, widths 0.5, 1 and 2 and l = 0 to 6.  The
# H^7 and H^8 ones stalled at a noise floor near 3e-9 of their value while
# high derivatives were evaluated from expanded coefficient tensors.
@pytest.mark.parametrize("center, width, l", [
    (-6.0, 1.0, 4), (7.0, 1.0, 4), (-5.0, 1.0, 4), (6.0, 1.0, 4),
    (-5.5, 1.0, 3), (6.5, 1.0, 3), (-6.0, 2.0, 0), (-3.0, 1.0, 1),
    (-3.0, 0.5, 4), (-5.0, 1.0, 8), (-3.0, 1.0, 7), (-3.0, 1.0, 8),
    (0.5, 1.0, 7), (0.5, 1.0, 8), (3.0, 1.0, 7), (3.0, 1.0, 8)])
def test_seminorms_next_to_a_step_meet_their_target(center, width, l):
    f = build_test_function(MODEL, GaussianPacket(center=center, width=width))
    g = f
    for _ in range(l):
        g = apply_observable(Observable.H, g)
    # The peaks of H^l f next to the steps narrow as l grows.
    ref = _dense_split(g, near=0.25)
    value = seminorm(f, 0, 0, l, SPEC) ** 2
    assert abs(value - ref) <= max(SPEC.abs_tol, SPEC.rel_tol * ref)


def test_words_of_one_order_share_their_starting_nodes(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    calls, _ = _count_values(monkeypatch)
    starts = {}  # order: starting nodes
    for n, m, l in C09_ORDERS:
        order = n + m + 2 * l
        if order == 0:
            continue
        calls.clear()
        seminorm(f, n, m, l, SPEC)
        first = order not in starts
        if first:
            assert calls[0][1] == order
            starts[order] = calls[0][2]
        for k, (_, _, x) in enumerate(calls):
            # The starting nodes of an order get one jet of that order,
            # from whichever word comes first; a later word of that order
            # computes none there.
            shared = np.isin(x, starts[order])
            assert shared.any() == (first and k == 0)
    assert sorted(starts) == list(range(1, 9))


@pytest.mark.parametrize("x0", [-0.12, -0.05, 1.05])
def test_jet_image_matches_mpmath_next_to_the_steps(x0):
    packet = GaussianPacket(center=-3.0, width=1.0, momentum=1.0,
                            poly_degree=1)
    f = build_test_function(MODEL, packet)
    g = packet_expression(MODEL, packet)
    value = _image_values(f, _spell(8, 8, 0), [x0])[0]
    ref = (-1j * MODEL.hbar) ** 8 * mp_derivative(lambda t: t ** 8 * g(t),
                                                  x0, 8)
    # Each derivative read carries its own evaluation error, weighted by
    # its polynomial.  At 1.05 f^(8) is evaluated to 2.5e-14 relative, and
    # P^8 Q^8 f to 2.1e-13.
    c = ts._word(MODEL, _spell(8, 8, 0))[0]
    inherited = sum(
        abs(np.polyval(c[::-1, s], x0))
        * abs(evaluate(f, x0, s) - mp_derivative(g, x0, s))
        for s in range(c.shape[1]))
    assert abs(value - ref) <= 1e-12 * abs(ref) + inherited
    if x0 < MODEL.a:
        assert abs(value - ref) <= 1e-12 * abs(ref)


# Mixed words next to the barrier, whose symbolic images stalled the
# refinement: the polynomial in x of Q^m, expanded about the packet's
# centre, loses digits next to the steps.
@pytest.mark.parametrize("center", [-5.0, -3.0, 3.0])
@pytest.mark.parametrize("word", [(4, 4, 4), (2, 3, 5), (8, 8, 0)])
def test_mixed_words_next_to_the_barrier_return(center, word):
    f = build_test_function(MODEL, GaussianPacket(center, 1.0))
    value = seminorm(f, *word, SPEC) ** 2
    lo, hi = ts._jet_support(f, sum(word) + word[2], SPEC)
    ref = _dense(lambda x: _image_values(f, _spell(*word), x), lo, hi)
    assert abs(value - ref) <= max(SPEC.abs_tol, SPEC.rel_tol * ref)


OTHER_MODELS = [BarrierModel(a=-0.3, b=0.9, v0=5.0),
                BarrierModel(a=1.0, b=1.5, v0=0.7, hbar=0.8, mass=1.3)]
WORDS = [(1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2), (0, 0, 4), (3, 3, 1),
         (8, 0, 0), (0, 8, 0)]


@pytest.mark.parametrize("model", OTHER_MODELS, ids=["narrow", "scaled"])
@pytest.mark.parametrize("packet", [GaussianPacket(-7.0, 1.0, 2.0, 1),
                                    GaussianPacket(8.0, 1.5, -1.0, 2)])
def test_jet_route_agrees_with_symbolic_route_on_other_models(model, packet):
    f = build_test_function(model, packet)
    xs = packet.center + packet.width * np.array([-0.8, 0.3, 1.1])
    for word in WORDS:
        g = _image(f, *word)
        for x0, v in zip(xs, evaluate(g, xs)):
            ref = mp_word(model, packet, _spell(*word), x0)
            assert abs(v - ref) <= 1e-11 * abs(ref), (word, x0)
        ref = inner_product(g, g, SPEC).real
        value = seminorm(f, *word, SPEC) ** 2
        assert abs(value - ref) <= max(SPEC.abs_tol, SPEC.rel_tol * ref)


@pytest.mark.parametrize("model", OTHER_MODELS, ids=["narrow", "scaled"])
def test_word_coefficients_match_symbolic_images_on_each_region(model):
    # A packet over the whole barrier: its images hold V = v0 inside.
    f = build_test_function(model, GaussianPacket(
        0.5 * (model.a + model.b), 1.0, 1.5, 1))
    x = np.array([model.a - 1.3, model.a + 0.3 * model.width,
                  model.a + 0.6 * model.width, model.b + 1.1])
    packet = f.terms[0].packet
    for word in WORDS + [(0, 0, 2), (2, 0, 3)]:
        ref = [mp_word(model, packet, _spell(*word), x0) for x0 in x]
        value = _image_values(f, _spell(*word), x)
        assert np.allclose(value, ref, rtol=1e-11, atol=0.0)


def test_words_of_each_order_are_enumerated_once():
    # Order K has Pell(K + 1) words: 2 a(K-1) + a(K-2).
    counts = [1, 2, 5, 12, 29, 70, 169, 408, 985]
    for order, count in enumerate(counts):
        words = ts._words(order)
        assert len(words) == len(set(words)) == count
        assert all(len(w) + w.count("H") == order for w in words)
        assert set("".join(words)) <= set("QPH")


@pytest.mark.parametrize("model", [MODEL] + OTHER_MODELS,
                         ids=["default", "narrow", "scaled"])
def test_coefficient_bound_covers_every_word(model):
    # HQ, of order 3, has sum |c| = 5 under the default model; a bound over
    # the words P^n Q^m H^l alone gives 3.
    for order in range(9):
        bound = math.exp(ts._log_coef_bound(model, order))
        for word in ts._words(order):
            for c in ts._word(model, word):
                if c is not None:
                    # Up to the rounding of the sums and of exp(log(.)).
                    assert np.abs(c).sum() <= bound * (1.0 + 1e-12), word
    hq = ts._word(MODEL, "HQ")
    assert max(np.abs(c).sum() for c in hq) == pytest.approx(5.0)


# Every word of the order-4 battery, next to and over the steps too, and on
# the image Hf.  The dense references integrate the images' values, which
# are held against mp_word next to both steps, inside and on the packet.
@pytest.mark.parametrize("model, packet, kind", [
    (MODEL, GATE_PACKET, None),
    (MODEL, GaussianPacket(-3.0, 1.0, 1.0, 1), None),
    (MODEL, GaussianPacket(0.5, 1.0), None),
    (BarrierModel(a=-0.3, b=0.9, v0=5.0, hbar=0.8, mass=1.3),
     GaussianPacket(0.3, 1.0, 1.5, 1), None),
    (MODEL, GaussianPacket(0.5, 1.0), Observable.H),
], ids=["gate", "at-3", "at0.5", "narrow-scaled", "h-image"])
def test_battery_norms_match_dense_references(model, packet, kind):
    f = build_test_function(model, packet)
    base = ""
    if kind is not None:
        f = apply_observable(kind, f)
        base = kind.value
    xs = np.array([model.a - 0.05, model.a + 0.3 * model.width, model.b + 0.05,
                   packet.center - 0.6 * packet.width,
                   packet.center + 0.6 * packet.width])
    norms = {}
    for order in range(5):
        for word in ts._words(order):
            norms[word] = ts._word_norm(f, word, SPEC)
            image = _symbolic(f, word)
            for x0, v in zip(xs, evaluate(image, xs)):
                mp = mp_word(model, packet, word + base, x0)
                assert abs(v - mp) <= 1e-11 * abs(mp), (word, x0)
            ref = _dense_split(image)
            assert abs(norms[word] ** 2 - ref) <= max(
                SPEC.abs_tol, SPEC.rel_tol * ref), word
    assert len(norms) == 49
    report = check_invariance_battery(f, 4, SPEC)
    (name, value), = report.witnesses
    assert value == max(norms.values())
    assert norms[name.removeprefix("largest norm ")] == value


def test_battery_after_the_table_samples_no_starting_node(monkeypatch):
    f = build_test_function(MODEL, GATE_PACKET)
    calls, nodes = _count_values(monkeypatch)
    starts = {}  # order: the starting nodes of its words
    for n, m, l in C09_ORDERS:
        calls.clear()
        seminorm(f, n, m, l, SPEC)
        if calls:
            starts.setdefault(n + m + 2 * l, calls[0][2])
    calls.clear()
    nodes.clear()
    report = check_invariance_battery(f, 4, SPEC)
    assert report.passed and nodes
    # The 48 words of order 1 to 4 start on the table's panels, where f
    # holds every derivative they read; refinement rounds may sample.
    for _, _, x in calls:
        for order in range(1, 5):
            assert not np.isin(x, starts[order]).any()


def test_support_interval_of_hf_brackets_its_mass_inside_the_barrier():
    hf = apply_observable(Observable.H, build_test_function(
        MODEL, GaussianPacket(center=0.5, width=1.0)))
    lo, hi = hf.support_interval(SPEC.spatial_radius)
    assert lo < MODEL.a and MODEL.b < hi
    # Dense mass of |Hf|^2 on [-10, 11], and the part outside [lo, hi].
    x24, w24 = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-10.0, 11.0, 2101)
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x24).ravel()
    dens = (np.abs(evaluate(hf, x)) ** 2 * np.tile(w24, half.size)
            * np.repeat(half, 24))
    outside = (x < lo) | (x > hi)
    assert dens[outside].sum() < 1e-30 * dens.sum()
    assert abs(evaluate(hf, hi + 0.5)) < 1e-15
    assert abs(evaluate(hf, lo - 0.5)) < 1e-15


_TABLE_AND_BATTERY = """
from barrierkets import *
model, spec = BarrierModel(), QuadratureSpec()
f = apply_observable(Observable.H, build_test_function(
    model, GaussianPacket(18.934, 1.9845, 2.9436)))
values = [seminorm(f, n, m, l, spec) for l in range(5) for m in range(9)
          for n in range(9) if n + m + 2 * l <= 8]
values += [v for _, v in check_invariance_battery(f, 4, spec).witnesses]
print(" ".join(v.hex() for v in values))
"""


def test_table_and_battery_bits_do_not_depend_on_blas_threads():
    # Hf of an operator_algebra input, whose c09 table differed in the last
    # bit of two values between one and two OpenBLAS threads while the
    # word images were contracted by matrix products.
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(
                       os.path.dirname(barrierkets.__file__)))
        proc = subprocess.run([sys.executable, "-c", _TABLE_AND_BATTERY],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 96
    assert outputs[0] == outputs[1]
