"""Chebyshev amplitude caches: tight tolerances, long supports, query order,
and packets near the barrier whose expansion the k_max cutoff truncates."""

import math
import sys
from functools import partial

import numpy as np
import pytest

from barrierkets import (
    AccuracyError,
    BarrierModel,
    Channel,
    DomainError,
    EnergyAmplitude,
    GaussianPacket,
    MomentumAmplitude,
    QuadratureSpec,
    SignLabel,
    build_test_function,
    energy_transform,
    evaluate,
    inner_product,
    momentum_transform,
    parseval_defect,
    spectral_probability,
    synthesize_energy,
    synthesize_momentum,
)
from barrierkets import eigenbasis, quadrature
from barrierkets import transforms as tr
from barrierkets.eigenbasis import _wave_grid
from barrierkets.scattering import _solve
from barrierkets.testspace import _support

MODEL = BarrierModel()
SPEC = QuadratureSpec()
# The gate's tolerances (tests/test_acceptance.py, criteria 04, 05, 10).
RECONSTRUCTION_TOL = 1e-6
PARSEVAL_MOMENTUM_TOL = 1e-8
PROBABILITY_TOL = 1e-6


def _unit(packet, spec=SPEC):
    f = build_test_function(MODEL, packet)
    return f.scaled(1.0 / math.sqrt(inner_product(f, f, spec).real))


def _probes(f):
    lo, hi = f.support_interval(SPEC.spatial_radius)
    probes = np.linspace(lo, hi, 50)
    return probes, evaluate(f, probes)


def test_amplitude_at_extreme_energies():
    # Below the cache range the matching is solved at the lowest cached
    # wave number k_min; far above the cutoff, and at inf, the amplitude is
    # exactly zero.  The suite turns any RuntimeWarning on the way into an
    # error.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    amp = energy_transform(f, SignLabel.PLUS, SPEC)
    e_min = (MODEL.hbar * amp.k_min) ** 2 / (2.0 * MODEL.mass)
    for channel in Channel:
        low = amp.amplitude(1e-30, channel)
        assert low != 0.0
        assert low == pytest.approx(amp.amplitude(e_min, channel), rel=1e-12)
        assert amp.amplitude(1e300, channel) == 0j
        assert amp.amplitude(math.inf, channel) == 0j
        with pytest.raises(DomainError):
            amp.amplitude(math.nan, channel)


def test_momentum_amplitude_at_non_finite_momenta():
    # Past the cutoff in either direction the amplitude is exactly zero;
    # nan is refused, as the energy amplitude refuses it.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    mom = momentum_transform(f, "analysis", SPEC)
    assert mom.amplitude(math.inf) == 0j
    assert mom.amplitude(-math.inf) == 0j
    with pytest.raises(DomainError):
        mom.amplitude(math.nan)
    with pytest.raises(DomainError):
        mom.amplitude(np.array([0.0, math.nan]))


def test_syntheses_refuse_non_finite_positions():
    # A non-finite position has no oscillation rate to start the spectral
    # integral's panels from; both syntheses refuse it as the amplitudes
    # refuse nan.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    amp = energy_transform(f, SignLabel.PLUS, SPEC)
    mom = momentum_transform(f, "analysis", SPEC)
    for x in (math.nan, math.inf, -math.inf, np.array([0.0, math.nan])):
        with pytest.raises(DomainError):
            synthesize_energy(amp, x, SPEC)
        with pytest.raises(DomainError):
            synthesize_momentum(mom, x, SPEC)


def test_battery_packet_at_tight_tolerance():
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    f = _unit(GaussianPacket(center=-20.0, width=1.0, momentum=3.0), tight)
    amp = energy_transform(f, SignLabel.PLUS, tight)
    assert amp.max_interp_error < 1e-11
    assert parseval_defect(f, f, "energy+", tight) < 1e-11


@pytest.mark.parametrize("center", [25.0, -23.0])
def test_longest_gate_packet_at_default_budget(center):
    # The gate's packets reach |center| 25 and width 2; with degree 2 they
    # have the longest supports and so the most oscillatory pieces.
    f = _unit(GaussianPacket(center=center, width=2.0, poly_degree=2))
    probes, reference = _probes(f)
    for sign in (SignLabel.PLUS, SignLabel.MINUS):
        amp = energy_transform(f, sign, SPEC)
        assert amp.max_interp_error < 1e-10
        rebuilt = synthesize_energy(amp, probes, SPEC)
        assert np.max(np.abs(rebuilt - reference)) < RECONSTRUCTION_TOL
        prob = spectral_probability(f, 0.0, math.inf, sign, SPEC)
        assert abs(prob - 1.0) < PROBABILITY_TOL


def test_amplitudes_do_not_depend_on_query_order():
    f = _unit(GaussianPacket(center=-20.0, width=1.0, momentum=3.0))
    amp = energy_transform(f, SignLabel.PLUS, SPEC)
    energies = np.linspace(0.05, amp.e_cut, 997)
    order = np.random.default_rng(7).permutation(energies.size)
    for channel in (Channel.LEFT, Channel.RIGHT):
        forward = amp.amplitude(energies, channel)
        shuffled = amp.amplitude(energies[order], channel)
        assert np.array_equal(shuffled, forward[order])
        one_by_one = [amp.amplitude(e, channel) for e in energies[order[:20]]]
        assert np.array_equal(np.array(one_by_one), forward[order[:20]])
    mom = momentum_transform(f, "analysis", SPEC)
    momenta = np.linspace(-mom.p_max, mom.p_max, 997)
    assert np.array_equal(mom.amplitude(momenta[order]),
                          mom.amplitude(momenta)[order])


# Packets of width 1 from five units left of the barrier [0, 1] to five
# units right of it.  The step of 11/15 puts most centers between the
# integers, so the test also sees centers such as -2.8, where a cutoff
# test that holds at the integers can still pass wrong numbers.
NEAR_BARRIER = [float(c) for c in np.linspace(-5.0, 6.0, 16)]


@pytest.mark.parametrize("center", NEAR_BARRIER)
def test_near_barrier_packets_raise_or_meet_the_gate(center):
    f = _unit(GaussianPacket(center=center, width=1.0))
    probes, reference = _probes(f)
    try:
        amp = energy_transform(f, SignLabel.PLUS, SPEC)
    except AccuracyError as exc:
        assert isinstance(exc.value, EnergyAmplitude)
        assert exc.error > SPEC.abs_tol
    else:
        rebuilt = synthesize_energy(amp, probes, SPEC)
        assert np.max(np.abs(rebuilt - reference)) < RECONSTRUCTION_TOL
        prob = spectral_probability(f, 0.0, math.inf, SignLabel.PLUS, SPEC)
        assert abs(prob - 1.0) < PROBABILITY_TOL
    try:
        mom = momentum_transform(f, "analysis", SPEC)
    except AccuracyError as exc:
        assert isinstance(exc.value, MomentumAmplitude)
        assert exc.error > SPEC.abs_tol
    else:
        rebuilt = synthesize_momentum(mom, probes, SPEC)
        assert np.max(np.abs(rebuilt - reference)) < PARSEVAL_MOMENTUM_TOL


def test_straddling_packet_raises():
    f = _unit(GaussianPacket(center=0.5, width=1.0))
    with pytest.raises(AccuracyError):
        energy_transform(f, SignLabel.MINUS, SPEC)
    with pytest.raises(AccuracyError):
        momentum_transform(f, "analysis", SPEC)


def _scaled_copy(f):
    lo, hi = _support(f, SPEC)
    return lo, hi, f.scaled(1.0 / tr._amplitude_scale(f, lo, hi))


# Wave numbers at which the rule is held against a dense reference; the
# last is the cutoff, where the kernels oscillate fastest.
PROBE_K = np.array([1e-3, 0.7, 5.3, 13.9, 26.2, SPEC.k_max])
# The reference: a fixed composite Gauss-Legendre rule, 24 nodes on each
# panel of width 1/_DENSE_PER_UNIT, sharing nothing with the adaptive
# engine that builds the rules.
_DENSE_X, _DENSE_W = np.polynomial.legendre.leggauss(24)
_DENSE_PER_UNIT = 32


def _pair_kernels(kappa_sq, dx):
    """cos(kappa dx) and sin(kappa dx) / kappa, written out per regime."""
    if kappa_sq >= 0.0:
        kappa = math.sqrt(kappa_sq)
        return np.cos(kappa * dx), np.sin(kappa * dx) / kappa
    q = math.sqrt(-kappa_sq)
    return np.cosh(q * dx), np.sinh(q * dx) / q


def _dense_integral(g, lo, hi):
    """Integral of the (n, B) integrand g over [lo, hi], by the fixed rule."""
    edges = np.linspace(lo, hi, math.ceil((hi - lo) * _DENSE_PER_UNIT) + 1)
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _DENSE_X
    w = (half[:, None] * _DENSE_W).ravel()
    return w @ g(x.ravel())


@pytest.mark.parametrize("packet", [
    GaussianPacket(center=-20.0, width=1.0, momentum=3.0, poly_degree=2),
    GaussianPacket(center=0.5, width=1.0),
    GaussianPacket(center=-2.8, width=1.0),
])
def test_spatial_rule_matches_adaptive_quadrature(packet):
    # The rules are read directly, so that the cutoff test, which refuses
    # the last two packets, does not skip the comparison.  Each exterior
    # side's G(s k) = F(s k) exp(i s k x0), s = +-1, is held against the
    # reference integral of f exp(i s k x) over the side, and the interior's
    # C and S against the reference integrals of f against cos(kappa
    # (x - x0)) and sin(kappa (x - x0)) / kappa.
    f = build_test_function(MODEL, packet)
    lo, hi, fs = _scaled_copy(f)
    ispec = tr._inner_spec(SPEC)
    sides = 0
    for region in ((lo, min(MODEL.a, hi)), (max(MODEL.b, lo), hi)):
        if not region[1] > region[0]:
            continue
        sides += 1
        rule = tr._region_rule(f, fs, region, SPEC)
        for s in (-1, 1):
            # got and ref carry the same rounded phase factor, so its
            # rounding does not enter the comparison.
            phase = np.exp(1j * s * PROBE_K * rule.center)
            got = tr._fourier_direct(rule, s * PROBE_K) * phase
            ref = phase * _dense_integral(
                lambda x: evaluate(fs, x)[:, None] * np.exp(
                    1j * s * np.outer(x - rule.center, PROBE_K)),
                region[0], region[1])
            assert np.max(np.abs(got - ref)) <= ispec.abs_tol
    assert sides >= 1
    mid = (max(MODEL.a, lo), min(MODEL.b, hi))
    interiors = 0
    if mid[1] > mid[0]:
        # The default barrier is low enough (k0 L / 2 = 0.71) for the whole
        # interior to be one sub-region.
        rule = tr._region_rule(f, fs, mid, SPEC)
        kappa_sq = PROBE_K ** 2 - 2.0 * MODEL.mass * MODEL.v0 / MODEL.hbar ** 2
        for which in (0, 1):
            got = tr._pair_direct(rule, MODEL, which, PROBE_K)
            ref = _dense_integral(
                lambda x: evaluate(fs, x)[:, None] * np.stack(
                    [_pair_kernels(q, x - rule.center)[which]
                     for q in kappa_sq], axis=1), mid[0], mid[1])
            assert np.max(np.abs(got - ref)) <= ispec.abs_tol
            interiors += 1
    assert interiors == (2 if lo < MODEL.a < hi else 0)
    rule = tr._region_rule(f, fs, (lo, hi), SPEC)
    demod = 0.5 * (lo + hi)
    momenta = MODEL.hbar * np.concatenate([-PROBE_K[::-1], PROBE_K])
    norm = 1.0 / math.sqrt(2.0 * math.pi * MODEL.hbar)
    got = norm * tr._fourier_direct(rule, -momenta / MODEL.hbar)
    ref = _dense_integral(
        lambda x: evaluate(fs, x)[:, None] * np.exp(
            -1j * np.outer(x - demod, momenta) / MODEL.hbar), lo, hi)
    ref /= math.sqrt(2.0 * math.pi * MODEL.hbar)
    assert np.max(np.abs(got - ref)) <= ispec.abs_tol


def test_spatial_rule_node_economy():
    # One rule serves every piece of the battery packet and its momentum
    # analysis; 384 nodes (twelve 32-point panels) at the time of writing.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    lo, hi, fs = _scaled_copy(f)
    assert tr._region_rule(f, fs, (lo, hi), SPEC).x.size <= 576


def test_tight_rule_node_economy():
    # At abs_tol 1e-12 the rule's target sits at the roundoff floor of its
    # probe sums, so its size follows their summation order: 384 nodes at
    # the time of writing, 704 with an earlier order.  Accepting on the sum
    # of |panel differences| instead of |their sum| never met the target.
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    f = _unit(GaussianPacket(center=-20.0, width=1.0, momentum=3.0), tight)
    lo, hi, fs = _scaled_copy(f)
    assert tr._region_rule(f, fs, (lo, hi), tight).x.size <= 1056


def test_energy_synthesis_node_economy(monkeypatch):
    # The synthesis integrand matches once per call, at all of its nodes:
    # 3744 nodes for 50 probes at the time of writing.
    # The matching memo starts empty, so node arrays an earlier test left
    # there cannot hide solves; its hits never reach tr._solve.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    amp = energy_transform(f, SignLabel.PLUS, SPEC)
    probes, reference = _probes(f)
    nodes = []

    def counting_solve(model, energies):
        nodes.append(np.size(energies))
        return _solve(model, energies)

    monkeypatch.setattr(tr, "_MATCHING_MEMO", {})
    monkeypatch.setattr(tr, "_solve", counting_solve)
    rebuilt = synthesize_energy(amp, probes, SPEC)
    assert np.max(np.abs(rebuilt - reference)) < RECONSTRUCTION_TOL
    assert sum(nodes) <= 5616


def test_matching_memo_shares_read_only_solutions(monkeypatch):
    monkeypatch.setattr(tr, "_MATCHING_MEMO", {})
    energies = np.linspace(0.5, 40.0, 17)
    sol = tr._matching(MODEL, energies)
    assert tr._matching(MODEL, energies.copy()) is sol
    assert not (sol.energy.flags.writeable or sol.t.flags.writeable
                or sol.sc_l[0].flags.writeable)
    with pytest.raises(ValueError):
        sol.r_l[0] = 0.0
    other = tr._matching(BarrierModel(v0=3.0), energies)
    assert other is not sol
    assert other.t.tobytes() != sol.t.tobytes()
    for shift in range(2 * tr._MATCHING_ENTRIES):
        tr._matching(MODEL, energies + shift)
        assert len(tr._MATCHING_MEMO) <= tr._MATCHING_ENTRIES


def test_amplitudes_unchanged_without_matching_memo(monkeypatch):
    # Every reader of the memo returns the bits of a fresh solve.
    f = _unit(GaussianPacket(-20.0, 1.0, 3.0))
    g = _unit(GaussianPacket(-19.0, 1.5, -1.0))
    amps = [energy_transform(f, sign, SPEC) for sign in SignLabel]
    energies = np.linspace(0.05, 1500.0, 301)
    probes = _probes(f)[0]

    def outputs():
        out = [a.amplitude(energies, c) for a in amps for c in Channel]
        out += [synthesize_energy(a, probes, SPEC) for a in amps]
        out += [spectral_probability(f, 0.0, math.inf, sign, SPEC)
                for sign in SignLabel]
        out.append(parseval_defect(f, g, "energy+", SPEC))
        return [np.asarray(v).tobytes() for v in out]

    memoized = outputs()
    monkeypatch.setattr(tr, "_matching", _solve)
    assert outputs() == memoized


def test_panel_read_matches_chebval():
    # Random complex panels, read inside, on every edge and outside the
    # range, where the end panels' series are extrapolated.
    rng = np.random.default_rng(5)
    edges = np.cumsum(rng.uniform(0.1, 2.0, 9)) - 5.0
    coeffs = (rng.standard_normal((8, tr._DEGREE + 1))
              + 1j * rng.standard_normal((8, tr._DEGREE + 1)))
    k = np.concatenate([rng.uniform(edges[0], edges[-1], 500), edges,
                        [edges[0] - 0.3, edges[-1] + 0.3]])
    idx = np.clip(np.searchsorted(edges, k, side="right") - 1, 0, 7)
    a, b = edges[idx], edges[idx + 1]
    t = (2.0 * k - (a + b)) / (b - a)
    ref = np.polynomial.chebyshev.chebval(t, coeffs[idx].T, tensor=False)
    assert tr._Panels(edges, coeffs)(k).tobytes() == ref.tobytes()


def test_one_sided_packet_builds_one_cache(monkeypatch):
    # Both sign families of both channels and the momentum analysis read
    # the one F of the packet's only region.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    builds = []

    def counting_panels(*args, **kwargs):
        builds.append(args[1:3])
        return chebyshev_panels(*args, **kwargs)

    chebyshev_panels = tr._chebyshev_panels
    monkeypatch.setattr(tr, "_chebyshev_panels", counting_panels)
    amps = [energy_transform(f, sign, SPEC) for sign in SignLabel]
    mom = momentum_transform(f, "analysis", SPEC)
    assert builds == [(-SPEC.k_max, SPEC.k_max)]
    # Both sign families count the shared cache once, as does the momentum
    # side.
    assert {amp.cache_points for amp in amps} == {mom.cache_points}


def test_straddling_packet_builds_one_interior_pair(monkeypatch):
    # Inside the barrier both sign families of both channels read one pair
    # (C, S) per interior sub-region, and the default barrier's interior is
    # one sub-region: 134 points at the time of writing, where one cache
    # per (channel, sign) took four builds and 1804 points.
    f = build_test_function(MODEL, GaussianPacket(0.5, 1.0))
    builds = []

    def counting_panels(*args, **kwargs):
        panels = chebyshev_panels(*args, **kwargs)
        builds.append((args[1:3], panels.points))
        return panels

    chebyshev_panels = tr._chebyshev_panels
    monkeypatch.setattr(tr, "_chebyshev_panels", counting_panels)
    for sign in SignLabel:
        # The cutoff refuses this packet, after its caches are built.
        with pytest.raises(AccuracyError, match="cutoff"):
            energy_transform(f, sign, SPEC)
    interior = [points for span, points in builds
                if span != (-SPEC.k_max, SPEC.k_max)]
    assert len(interior) == 2
    assert sum(interior) <= 400


def test_opaque_barrier_amplitudes_match_dense_reference():
    # At v0 = 1e4 (k0 = 100) the interior is cut into 13 sub-regions, so
    # that cos(kappa (x - x0)) grows by at most exp(4) across each.  One
    # interior cache per (channel, sign) exhausted the point budget here.
    # The wave numbers cross the barrier top k0.
    model = BarrierModel(v0=1e4)
    spec = QuadratureSpec(k_max=160.0)
    f = build_test_function(model, GaussianPacket(0.5, 0.5))
    lo, hi = _support(f, spec)
    k = np.array([1.0, 50.0, 99.0, 99.99, 100.0, 100.01, 101.0, 120.0, 159.0])
    energies = (model.hbar * k) ** 2 / (2.0 * model.mass)
    sol = _solve(model, energies)
    for sign in SignLabel:
        with pytest.raises(AccuracyError, match="cutoff") as info:
            energy_transform(f, sign, spec)
        amp = info.value.value
        assert isinstance(amp, EnergyAmplitude)
        # The sign's amplitude integrates f against the conjugate wave,
        # which is the other family's.
        family = SignLabel.MINUS if sign is SignLabel.PLUS else SignLabel.PLUS
        for channel in Channel:
            ref = sum(_dense_integral(
                lambda x: evaluate(f, x)[:, None] * _wave_grid(
                    model, sol, channel, family, x).T, r_lo, r_hi)
                for r_lo, r_hi in ((lo, model.a), (model.a, model.b),
                                   (model.b, hi)))
            err = np.max(np.abs(amp.amplitude(energies, channel) - ref))
            assert err <= 1e-12
            assert err <= amp.max_interp_error


@pytest.mark.parametrize("packet", [
    GaussianPacket(center=-20.0, width=1.0, momentum=3.0, poly_degree=2),
    GaussianPacket(center=0.5, width=1.0),
])
def test_region_cache_matches_dense_reference(packet):
    # The cached F of each region, read at the signed wave numbers of both
    # families and at -p / hbar, against the dense rule, within the cache's
    # own tolerance.
    f = build_test_function(MODEL, packet)
    lo, hi, fs = _scaled_copy(f)
    model = MODEL
    regions = {(lo, hi), (lo, min(model.a, hi)), (max(model.b, lo), hi)}
    kappa = np.concatenate([-PROBE_K[::-1], PROBE_K])
    for region in regions:
        if not region[1] > region[0]:
            continue
        rule = tr._region_fourier(f, fs, region, SPEC)
        x0 = 0.5 * (region[0] + region[1])
        ref = _dense_integral(
            lambda x: evaluate(fs, x)[:, None] * np.exp(
                1j * np.outer(x - x0, kappa)), region[0], region[1])
        assert np.max(np.abs(rule.fourier(kappa) - ref)) <= tr._piece_tol(SPEC)


@pytest.mark.parametrize("sign", list(SignLabel))
def test_exterior_weights_reproduce_wave_rows(sign):
    # At the probe wave numbers, and at and around the barrier top.
    energies = np.concatenate([(MODEL.hbar * PROBE_K) ** 2 / (2.0 * MODEL.mass),
                               MODEL.v0 + np.array([-1e-13, 0.0, 1e-13])])
    sol = _solve(MODEL, energies)
    x = np.concatenate([np.linspace(MODEL.a - 25.0, MODEL.a - 1e-3, 23),
                        np.linspace(MODEL.b + 1e-3, MODEL.b + 25.0, 23)])
    sides = (x < MODEL.a, x > MODEL.b)
    wave = np.exp(1j * np.outer(sol.k, x))
    for channel in Channel:
        rows = _wave_grid(MODEL, sol, channel, sign, x, include_prefactor=False)
        scale = np.max(np.abs(rows), axis=1, keepdims=True)
        table = eigenbasis._exterior_weights(sol, sign)
        for cols, weights in zip(sides, table):
            w_a, w_b = (np.broadcast_to(w, sol.k.shape)[:, None]
                        for w in weights[channel])
            got = w_a * wave[:, cols] + w_b * np.conj(wave[:, cols])
            assert np.all(np.abs(got - rows[:, cols]) <= 1e-14 * scale)


def _synthesis_run(monkeypatch, synthesize, *args):
    """Run a synthesis and return what it handed the quadrature engine: the
    panel evaluator with the engine's other arguments, and the final panel
    count."""
    runs = []

    def engine(panels, *rest):
        out = quadrature._adaptive(panels, *rest)
        runs.append((panels, rest, out[2].size))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tr, "_adaptive", engine)
        value = synthesize(*args)
    (run,) = runs
    return value, run


@pytest.mark.parametrize("sign", list(SignLabel))
def test_synthesis_kernel_matches_channel_sum(sign, monkeypatch):
    # The panel sums of the energy synthesis's evaluator against the
    # amplitudes times _wave_grid's rows, times the Jacobian hbar^2 k / m of
    # the integral in k.  Panels whose nodes all sit at one wave number read
    # the sums at chosen energies (the barrier top among them); the engine's
    # layout, on panels of three widths, checks the parts.
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    amp = energy_transform(f, sign, SPEC)
    energies = np.concatenate([np.linspace(0.05, amp.e_cut, 41),
                               [MODEL.v0, 0.5 * MODEL.v0]])
    at_energies = (np.sqrt(2.0 * MODEL.mass * energies) / MODEL.hbar,
                   np.ones(energies.size), np.zeros((1, 32)), np.ones(1))
    edges = np.linspace(0.0, SPEC.k_max, 9)
    a = np.concatenate([edges[1:-1], [edges[0], 0.5 * edges[1], 0.25 * edges[1]]])
    b = np.concatenate([edges[2:], [0.25 * edges[1], edges[1], 0.5 * edges[1]]])
    engine_layout = (0.5 * (a + b), 0.5 * (b - a), quadrature._PARTS_X,
                     quadrature._PART_WIDTH)
    x = np.concatenate([np.linspace(MODEL.a - 3.0, MODEL.b + 3.0, 37),
                        [MODEL.a, MODEL.b, -25.0, 25.0]])
    for channels in ((Channel.LEFT, Channel.RIGHT), (Channel.LEFT,),
                     (Channel.RIGHT,)):
        _, (panels, _, _) = _synthesis_run(monkeypatch, synthesize_energy,
                                           amp, x, SPEC, channels)
        for mid, half, offsets, widths in (at_energies, engine_layout):
            got, ncols = panels(mid, half, offsets, widths)
            weights = widths[:, None] * quadrature._GL_W
            k = mid[:, None, None] + half[:, None, None] * offsets
            e = (MODEL.hbar * k.ravel()) ** 2 / (2.0 * MODEL.mass)
            sol = _solve(MODEL, e)
            rows = sum(amp.amplitude(e, c)[:, None]
                       * _wave_grid(MODEL, sol, c, sign, x) for c in channels)
            terms = (rows * (MODEL.hbar ** 2 / MODEL.mass * k.ravel())[:, None]
                     ).reshape(k.shape + (x.size,)) * (
                         half[:, None, None] * weights)[..., None]
            ref = terms.sum(axis=2)
            scale = np.abs(terms).sum(axis=2).max(axis=2, keepdims=True)
            assert ncols == x.size and got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("packet", [
    GaussianPacket(-20.0, 1.0, 3.0),
    GaussianPacket(center=0.5, width=1.0),
])
def test_syntheses_match_pointwise_evaluators(packet, monkeypatch):
    # The engine, fed the integrands of both syntheses sampled node by node,
    # ends on the same panels and agrees within rounding.  The straddling
    # packet's transforms are refused; their amplitudes are read from the
    # errors.
    f = _unit(packet)
    x = np.array([-20.5, -20.0, -3.0, MODEL.a, 0.25, 0.5, 0.75, MODEL.b, 2.0])
    hbar, mass = MODEL.hbar, MODEL.mass
    try:
        mom = momentum_transform(f, "analysis", SPEC)
    except AccuracyError as exc:
        mom = exc.value

    def momentum_integrand(p):
        return (mom.amplitude(p)[:, None] * np.exp(1j * np.outer(p, x) / hbar)
                / math.sqrt(2.0 * math.pi * hbar))

    cases = [(synthesize_momentum, mom, momentum_integrand)]
    for sign in SignLabel:
        try:
            amp = energy_transform(f, sign, SPEC)
        except AccuracyError as exc:
            amp = exc.value

        def energy_integrand(k, amp=amp, sign=sign):
            e = (hbar * k) ** 2 / (2.0 * mass)
            sol = _solve(MODEL, e)
            return sum(amp.amplitude(e, c)[:, None]
                       * _wave_grid(MODEL, sol, c, sign, x) for c in Channel
                       ) * (hbar ** 2 / mass * k)[:, None]

        cases.append((synthesize_energy, amp, energy_integrand))
    for synthesize, amplitude, integrand in cases:
        value, (_, rest, panel_count) = _synthesis_run(
            monkeypatch, synthesize, amplitude, x, SPEC)
        ref, _, a, _, _ = quadrature._adaptive(
            partial(quadrature._eval_panels, integrand, False), *rest)
        assert panel_count == a.size
        assert np.max(np.abs(value - ref)) <= 1e-14


def test_plane_wave_work_counts(monkeypatch):
    # Entries of every phase array passed to _cis, in every module that
    # binds it, for the battery packet at the default spec.  Forming one
    # cos and one sin per (node, frequency) took 210050 for the analysis
    # and 194688 for the synthesis at 50 probes; the panel factorization
    # takes 73982 and 23838 at the time of writing.
    entries = [0]
    cis = eigenbasis._cis

    def counted(phase):
        entries[0] += np.size(phase)
        return cis(phase)

    bindings = [module for name, module in sorted(sys.modules.items())
                if name.startswith("barrierkets")
                and getattr(module, "_cis", None) is cis]
    assert eigenbasis in bindings and tr in bindings
    for module in bindings:
        monkeypatch.setattr(module, "_cis", counted)
    f = build_test_function(MODEL, GaussianPacket(-20.0, 1.0, 3.0))
    amp = energy_transform(f, SignLabel.PLUS, SPEC)
    assert entries[0] <= 100000
    entries[0] = 0
    synthesize_energy(amp, _probes(f)[0], SPEC)
    assert entries[0] <= 40000
