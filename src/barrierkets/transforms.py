"""Energy and momentum expansions of test functions, as executable transforms.

The energy analysis of f produces, per incidence channel, the amplitude

    amp(E, c) = integral of conj(u_c(x; E)) f(x) dx,

with u_c the generalized eigenfunction.  Synthesis integrates the amplitudes
against the eigenfunctions over the spectrum and reproduces f; it and the
overlaps are line integrals handled by the quadrature module.

Amplitude values are needed at thousands of quadrature nodes, so transforms
build a certified interpolation cache.  Outside the barrier every
eigenfunction is A exp(ikx) + B exp(-ikx), its weights (A, B) on each side
read from the matching coefficients by the exterior table that the
eigenbasis module owns and describes (eigenbasis._exterior_weights).  So on
each exterior region R of f the amplitudes of both channels and both sign
families, and the plane-wave (momentum) amplitudes, are all read from one
function of a signed wave number,

    F_R(kappa) = integral over R of exp(i kappa (x - x0)) f(x) dx,

x0 the middle of R.  Demodulated by x0, F_R varies on the scale of the
packet width only.  It is interpolated once per region by degree-16
Chebyshev polynomials on panels that cover [-k_max, k_max] (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013).  A panel is
accepted when the last two coefficients of its Chebyshev series and its
error at two held-out probe points are below a fixed fraction of the
quadrature tolerance (the chopping test of Aurentz and Trefethen, ACM TOMS
43, 2017); otherwise it is bisected, and its probes become nodes of its
halves.  With G_R(kappa) = F_R(kappa) exp(i kappa x0), the integral of f
against exp(i kappa x) over R, the exterior part of an amplitude is

    sum over the sides R of conj(A) G_R(-k) + conj(B) G_R(k),

with (A, B) read from the table at the matching solution at k; the caller
passes the matching solution it already holds, so one solve serves every
amplitude an integrand reads.  The momentum amplitude reads F over the whole
support at kappa = -p/hbar.

Inside the barrier, about any point x0 of [a, b], the plus-family
eigenfunction of channel c is

    psi_c(x0) cos(kappa (x - x0)) + psi_c'(x0) (x - x0) sinc(kappa (x - x0)),

kappa^2 = k^2 - k0^2 with k0 = sqrt(2 m v0) / hbar, and the minus family
conjugates psi and psi' only: both kernels are real for real kappa^2.  The
support's part inside [a, b] is cut into sub-regions, and on each, x0 its
middle, one pair of functions of k serves both channels and both families:

    C(k) = integral of cos(kappa (x - x0)) f(x) dx,
    S(k) = integral of (x - x0) sinc(kappa (x - x0)) f(x) dx.

Both are entire in kappa^2, so smooth across the barrier top and its
degenerate shell, and each is interpolated once per sub-region on
Chebyshev panels over [k_min, k_max].  The interior part of an amplitude is
the sum over sub-regions of conj(psi) C + conj(psi') S for the plus
analysis and psi C + psi' S for the minus analysis, with (psi, psi') at x0
read exactly from the matching solution (scattering._interior_waves), as
the exterior reads (A, B).  Below the barrier top cos(kappa (x - x0)) grows
like exp(k0 L / 2) across a sub-region of length L, and C and S lose that
factor to cancellation, so the sub-regions are cut with k0 L / 2 at most
_INTERIOR_GROWTH.

C and S are certified against the factors they are read with.  For unit
incidence in either channel, flux conservation (|r|^2 + |t|^2 = 1) gives
|psi| <= 2 and k^2 |psi|^2 + |psi'|^2 <= 4 k^2 at both steps, and
|psi'|^2 + kappa^2 |psi|^2 is constant inside.  Where kappa^2 <= 0, |psi|^2
is convex, so |psi| <= 2 and then |psi'| <= 2 k0.  Where kappa^2 > 0,
|psi| <= 2 k / kappa and |psi'| <= 2 k, and propagation from the step
nearer x0, at distance l, gives |psi(x0)| <= 2 + 2 k l.  Each panel's
error is weighted by these bounds over its wave numbers before the chopping
test, at an equal share of one piece's budget per C and S, so the interior
part of an amplitude errs by at most one piece's tolerance (see
_interior_bound).

The spatial integrals behind every cache use one fixed rule per region of f:
the composite 32-point Gauss-Legendre panels on which the adaptive
quadrature engine, in its signed mode (see the quadrature module),
integrates f against plane-wave probes at wave numbers across
[-k_max, k_max], starting from panels sized for the top frequency k_max
plus f's phase.  f is sampled on the rule once, so a cache's direct values
at any array of wave numbers are sums of the weighted samples against the
kernel.  For F_R the kernel is a
plane wave, and a node of panel p is m_p + h_p xi_t, m_p the panel middle,
h_p its half-width and xi_t a Gauss-Legendre offset, so

    F_R(kappa) = sum over p of exp(i kappa (m_p - x0))
                 * sum over t of wf_pt exp(i kappa h_p xi_t),

the inner sums one matrix product per distinct panel width (see
eigenbasis._panel_waves); C and S multiply their kernel matrices with the
samples.  F_R, and a sub-region's pair (C, S), are kept beside their rule.

An expansion truncated at k_max cannot see the part of f beyond the cutoff.
After each build the mass of that part is bounded from the amplitudes at the
cutoff (see _tail_mass), and a build that would miss f by more than abs_tol
in norm raises AccuracyError carrying the amplitude object instead of
returning truncated answers.

Synthesis contracts the same table the other way: outside the barrier,
sum over c of amp_c(E) u_c(x; E) is (sum over c of amp_c A_c) exp(ikx) +
(sum over c of amp_c B_c) exp(-ikx).  Both syntheses hand the quadrature
engine a plane-wave panel evaluator (_synthesis_panels) instead of an
integrand: it samples those channel-summed coefficients (or the momentum
amplitude) at a round's nodes in k, folds in the weights and the Jacobian,
and contracts them with the plane waves panel by panel through the same
factorization as F_R, so no (nodes x positions) table of waves is formed.
Positions inside [a, b] keep the pointwise eigenfunction rows.

Every interpolant is read by _chebval: the Clenshaw recurrence in numpy's
chebval order, gathering one coefficient column per degree, so a read forms
no (degrees x points) array and returns chebval's bits.  An amplitude read
evaluates each side's F once, at (-k, k).  The matching solutions the reads
take are kept for the last _MATCHING_ENTRIES node arrays (_matching): the
plus and minus integrals of one function start on identical nodes, and on
the benchmark's round trip about 44% of the energies asked for are such
repeats (24 operations solve 231,552 energies with the memo and 416,760
without it, at about 6% more CPU).  The scattering kernel itself caches
nothing.

Transforms are memoized per (function, sign, tolerance spec); caches are
write-once and all callables are pure.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import fields, replace as drep
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import AccuracyError, DomainError
from .model import BarrierModel, Observable
from .quadrature import (
    _GL_W,
    _GL_X,
    QuadratureSpec,
    _adaptive,
    _eval_panels,
    _run,
    integrate_energy,
    integrate_line,
)
from .scattering import Channel, SignLabel, _cis, _interior_waves, _sinc, \
    _solve
from .eigenbasis import _exterior_weights, _panel_waves, _plane_wave_norm, \
    _wave_grid, energy_prefactor
from .testspace import TestFunction, _member, _product, _support, evaluate, \
    inner_product

__all__ = [
    "EnergyAmplitude",
    "MomentumAmplitude",
    "energy_transform",
    "synthesize_energy",
    "momentum_transform",
    "synthesize_momentum",
    "parseval_defect",
    "spectral_matrix_element",
    "expectation_uncertainty",
    "spectral_probability",
]

# Fraction of spec.abs_tol allowed as interpolation error per assembled
# amplitude; split over the four possible pieces of one channel (its three
# exterior waves and the interior, whose share is split again over the C and
# S of its sub-regions).
_CACHE_TOL_FRACTION = 0.1
_PIECES_PER_CHANNEL = 4
# Reported interpolation bound inflates the largest accepted panel error
# (chopped tail or probe error, whichever is larger).  Chebyshev
# interpolation errs by at most twice the sum of the dropped coefficients,
# which stays below twice the tail when the coefficients still fall by half
# per degree at the chop; the margin covers slower decay.
_INTERP_SAFETY = 5.0
# Lowest cached wave number relative to k_max; below it the value at the
# lower panel edge is used (the spectral measure kills the neighborhood of
# k = 0).
_K_EPS_FRACTION = 1e-8
_NORM_PROBE_TOL = 1e-8
# Chebyshev panels: polynomial degree, and the initial partition of one
# panel per _SEED_WIDTH / L wave-number units, L the length of the region
# being transformed (the demodulated phase then turns ~L/2 * width rad).
_DEGREE = 16
_SEED_WIDTH = 48.0
# Power-law decay assumed past a cutoff (see _tail_mass).
_TAIL_POWER = 1.5
# Chebyshev-Lobatto nodes on [-1, 1], ascending.  The sine form is exactly
# antisymmetric with an exact 0 in the middle, so a panel's middle node is
# bit-identical to the edge its two halves share.
_LOBATTO = np.sin(0.5 * np.pi * np.arange(-_DEGREE, _DEGREE + 1, 2) / _DEGREE)
# Values at the nodes to Chebyshev coefficients.
_TO_CHEB = np.linalg.inv(cheb.chebvander(_LOBATTO, _DEGREE))
# Probe wave numbers per sign at which a spatial rule is certified (see
# _region_rule).
_RULE_PROBES = 9
# Wave numbers times rule nodes evaluated at once.
_BLOCK_ENTRIES = 1 << 18
# Node arrays whose matching solutions _matching keeps.
_MATCHING_ENTRIES = 4
# Largest k0 L / 2 on one interior sub-region of length L, with
# k0 = sqrt(2 m v0) / hbar: below the barrier top cos(kappa (x - c0)) grows
# up to exp(k0 L / 2) across it, and the pair (C, S) loses that factor to
# cancellation.
_INTERIOR_GROWTH = 4.0


def _barrier_top(model: BarrierModel) -> float:
    """k0 = sqrt(2 m v0) / hbar, the wave number of the barrier top."""
    return math.sqrt(2.0 * model.mass * model.v0) / model.hbar


_MATCHING_MEMO: dict = {}


def _matching(model: BarrierModel, energies: np.ndarray):
    """The matching solution at a 1-d array of energies, kept for the last
    _MATCHING_ENTRIES arrays (see module docstring).

    Keyed by the model and the array's bytes, so only an identical node
    array hits.  The solution's arrays are read-only: every reader of the
    memo shares them.
    """
    energies = np.asarray(energies, dtype=float)
    key = (model, energies.shape, energies.tobytes())
    sol = _MATCHING_MEMO.pop(key, None)
    if sol is None:
        sol = _solve(model, energies.copy())
        for field in fields(sol)[:-1]:  # every field but the model
            getattr(sol, field.name).flags.writeable = False
        if len(_MATCHING_MEMO) >= _MATCHING_ENTRIES:
            del _MATCHING_MEMO[next(iter(_MATCHING_MEMO))]
    _MATCHING_MEMO[key] = sol
    return sol


def _piece_tol(spec: QuadratureSpec) -> float:
    return _CACHE_TOL_FRACTION * spec.abs_tol / _PIECES_PER_CHANNEL


def _inner_spec(spec: QuadratureSpec) -> QuadratureSpec:
    # Piece integrals feed the interpolation error test, so their own noise
    # floor must sit well below the midpoint tolerance.
    return drep(spec, abs_tol=_piece_tol(spec) / 8.0, rel_tol=1e-14)


def _amplitude_scale(f: TestFunction, lo: float, hi: float) -> float:
    """Coarse sup-norm estimate used to normalize cache error budgets.

    Piece integrals run on f divided by this scale, so their absolute
    tolerances are meaningful regardless of how large or small f is; the
    assembled amplitudes multiply the scale back in.
    """
    if not hi > lo:
        return 1.0
    xs = np.linspace(lo, hi, 513)
    peak = float(np.max(np.abs(evaluate(f, xs))))
    if not np.isfinite(peak) or peak == 0.0:
        return 1.0
    return peak


def _chebval(t: np.ndarray, cols, idx=Ellipsis) -> np.ndarray:
    """Chebyshev series at t, with the coefficient of degree n of point j
    read as cols[n][idx][j].

    The recurrence is numpy's chebval (Clenshaw, Math. Comp. 9 (1955) 118)
    in its own operation order, so the values are chebval's bits; only the
    series are never gathered into one (degrees x points) array.  2t is
    cast to complex once, as chebval's products would cast it every step.
    """
    x2 = (2.0 * t).astype(complex)
    c0, c1 = cols[-2][idx], cols[-1][idx]
    for col in cols[-3::-1]:
        c0, c1 = col[idx] - c1, c0 + c1 * x2
    return c0 + c1 * t


class _Panels:
    """Piecewise Chebyshev interpolant: sorted panel edges, one series each.

    cols holds the series as contiguous columns, one row per degree, so a
    read gathers one coefficient at a time.  points counts the direct
    values it was fitted from, max_err is its largest accepted panel error.
    """

    __slots__ = ("edges", "cols", "points", "max_err")

    def __init__(self, edges: np.ndarray, coeffs: np.ndarray, points: int = 0,
                 max_err: float = 0.0):
        self.edges = edges  # (P + 1,)
        self.cols = np.ascontiguousarray(coeffs.T)  # (_DEGREE + 1, P)
        self.points = points
        self.max_err = max_err

    def __call__(self, k: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.edges, k, side="right") - 1,
                      0, self.cols.shape[1] - 1)
        a, b = self.edges[idx], self.edges[idx + 1]
        return _chebval((2.0 * k - (a + b)) / (b - a), self.cols, idx)


def _seed_panels(span: float, region_len: float) -> int:
    return max(1, math.ceil(span * region_len / _SEED_WIDTH))


def _chebyshev_panels(direct, lo: float, hi: float, n0: int, tol: float,
                      cap: int, weight=None) -> _Panels:
    """See module docstring: certified piecewise Chebyshev interpolation.

    direct maps a sorted array of wave numbers to values; it is called once
    per refinement round, never twice at one wave number.  weight, when
    given, maps the panels' edges (lo, hi) to a bound on the factor the
    values are read with there; each panel's error is multiplied by it
    before the test against tol, and max_err is that weighted error.
    """
    known_k = np.empty(0)                 # sorted wave numbers
    known_v = np.empty(0, dtype=complex)  # direct values there
    edges = np.linspace(lo, hi, n0 + 1)
    pending_lo, pending_hi = edges[:-1], edges[1:]
    done_lo, done_coeffs = [], []
    worst = 0.0
    while pending_lo.size:
        a, b = pending_lo, pending_hi
        mid = 0.5 * (a + b)
        nodes = mid[:, None] + 0.5 * (b - a)[:, None] * _LOBATTO
        nodes[:, 0], nodes[:, -1] = a, b
        # The probes are the middles of the two halves, so a panel that
        # fails hands them on as its halves' middle nodes.
        probes = np.stack([0.5 * (a + mid), 0.5 * (mid + b)], axis=1)
        wanted = np.unique(np.concatenate([nodes.ravel(), probes.ravel()]))
        new = np.setdiff1d(wanted, known_k, assume_unique=True)
        if known_k.size + new.size > cap:
            raise AccuracyError(
                "amplitude cache refinement exhausted its point budget",
                error=worst)
        if new.size:
            at = np.searchsorted(known_k, new)
            known_v = np.insert(known_v, at, direct(new))
            known_k = np.insert(known_k, at, new)
        node_vals = known_v[np.searchsorted(known_k, nodes)]
        probe_vals = known_v[np.searchsorted(known_k, probes)]
        coeffs = node_vals @ _TO_CHEB.T
        tail = np.abs(coeffs[:, -2:]).max(axis=1)
        fit = _chebval(np.array([-0.5, 0.5]), coeffs.T[:, :, None])
        err = np.maximum(tail, np.abs(fit - probe_vals).max(axis=1))
        if weight is not None:
            err = err * weight(a, b)
        # A panel too narrow to halve is kept with its observed error.
        ok = (err <= tol) | ~((a < mid) & (mid < b))
        worst = max(worst, float(err[ok].max(initial=0.0)))
        done_lo.append(a[ok])
        done_coeffs.append(coeffs[ok])
        split = ~ok
        pending_lo = np.concatenate([a[split], mid[split]])
        pending_hi = np.concatenate([mid[split], b[split]])
    starts = np.concatenate(done_lo)
    order = np.argsort(starts, kind="stable")
    edges = np.append(starts[order], hi)
    return _Panels(edges, np.concatenate(done_coeffs)[order], known_k.size,
                   worst)


class _Rule:
    """Composite Gauss-Legendre rule on one region, with f sampled on it.

    mid and half hold the panels' middles and half-widths, x the nodes
    mid + half * _GL_X panel by panel, and wf the weights times the scaled
    function there, one row per panel, so the integral of f against any
    kernel over the region is kernel(x) @ wf.ravel().  center is the
    region's middle x0; fourier holds the region's F (see module docstring)
    once _region_fourier has built it, and pair an interior region's (C, S)
    once _region_pair has.
    """

    __slots__ = ("mid", "half", "x", "wf", "center", "fourier", "pair")

    def __init__(self, mid: np.ndarray, half: np.ndarray, x: np.ndarray,
                 wf: np.ndarray, center: float):
        self.mid = mid
        self.half = half
        self.x = x
        self.wf = wf
        self.center = center
        self.fourier = None
        self.pair = None


_RULE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _region_rule(f: TestFunction, fs: TestFunction, region, spec: QuadratureSpec
                 ) -> _Rule:
    """The certified rule of fs, f's scaled copy, on one region.

    Memoized per (f, region, spec): the amplitudes of both channels and
    both sign families, and the momentum analysis, share one rule per
    region.
    """
    rules = _RULE_MEMO.setdefault(f, {})
    key = (region, spec)
    if key not in rules:
        rules[key] = _build_rule(fs, region, spec)
    return rules[key]


def _build_rule(fs: TestFunction, region, spec: QuadratureSpec) -> _Rule:
    """See module docstring: one spatial rule, certified at the top frequency.

    The adaptive engine integrates fs against plane-wave probes of both
    signs in its signed mode, at the inner tolerance; the rule is the panels
    it returns with fs sampled on them once.  They certify the kernels of
    an interior pair too: where kappa is real these oscillate no faster
    than the top probe, and where it is imaginary they grow by at most
    exp(_INTERIOR_GROWTH) across the sub-region.
    """
    lo, hi = region
    ispec = _inner_spec(spec)
    k = np.linspace(_K_EPS_FRACTION * spec.k_max, spec.k_max, _RULE_PROBES)
    center = 0.5 * (lo + hi)

    def probes(x):
        # Columns at -k[::-1], then k: the waves at -k are the conjugates.
        wave = _cis(np.outer(x - center, k))
        return evaluate(fs, x)[:, None] * np.concatenate(
            [np.conj(wave[:, ::-1]), wave], axis=1)

    _, _, a, b, _ = _adaptive(partial(_eval_panels, probes, True), lo, hi,
                              ispec, spec.k_max + fs.max_phase(), signed=True)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _GL_X
    wf = (half[:, None] * _GL_W) * evaluate(fs, x.ravel()).reshape(x.shape)
    return _Rule(mid, half, x.ravel(), wf, center)


def _apply_rule(rule: _Rule, k_arr: np.ndarray, values) -> np.ndarray:
    """values(k) over blocks of k_arr, each at most _BLOCK_ENTRIES wave
    numbers times the rule's nodes."""
    out = np.empty(k_arr.size, dtype=complex)
    step = max(1, _BLOCK_ENTRIES // rule.x.size)
    for start in range(0, k_arr.size, step):
        chunk = k_arr[start:start + step]
        out[start:start + chunk.size] = values(chunk)
    return out


def _fourier_direct(rule: _Rule, kappa: np.ndarray) -> np.ndarray:
    """F of the rule's region at the given signed wave numbers.

    F(kappa) is the sum over panels p of exp(i kappa (m_p - x0)) times the
    panel's weighted samples against exp(i kappa h_p xi), xi the
    Gauss-Legendre offsets: see _panel_waves.
    """
    return _apply_rule(rule, kappa, lambda k: _panel_waves(
        rule.wf, rule.mid, rule.half, _GL_X, k, rule.center).sum(axis=0))


def _region_fourier(f: TestFunction, fs: TestFunction, region,
                    spec: QuadratureSpec) -> _Rule:
    """The rule of one region with its F built: see module docstring.

    F is built on first use and kept on the memoized rule, so both
    channels, both sign families and the momentum analysis share one build.
    """
    rule = _region_rule(f, fs, region, spec)
    if rule.fourier is None:
        rule.fourier = _chebyshev_panels(
            lambda kappa: _fourier_direct(rule, kappa), -spec.k_max,
            spec.k_max, _seed_panels(2.0 * spec.k_max, region[1] - region[0]),
            _piece_tol(spec), spec.max_subdivisions)
    return rule


def _pair_direct(rule: _Rule, model: BarrierModel, which: int,
                 k_arr: np.ndarray) -> np.ndarray:
    """C (which 0) or S (which 1) of an interior rule's region at wave
    numbers k_arr: the integrals of f against cos(kappa (x - x0)) and
    (x - x0) sinc(kappa (x - x0)), kappa^2 = k^2 - k0^2."""
    k0 = _barrier_top(model)
    dx = rule.x - rule.center

    def values(k):
        # kappa dx is real or imaginary, so either kernel is real.
        z = np.sqrt(k * k - k0 * k0 + 0j)[:, None] * dx
        kernel = np.cos(z) if which == 0 else dx * _sinc(z)
        return kernel.real @ rule.wf.ravel()

    return _apply_rule(rule, k_arr, values)


def _interior_bound(model: BarrierModel, center: float, which: int,
                    ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Bound on |psi| (which 0) or |psi'| (which 1) at center over panels
    [ka, kb] of wave numbers, psi either channel's eigenfunction for unit
    incidence: the factors C and S are read with (see module docstring)."""
    k0 = _barrier_top(model)
    if which == 1:
        return 2.0 * np.maximum(kb, k0)
    reach = min(center - model.a, model.b - center)
    kappa = np.sqrt(np.maximum(ka * ka - k0 * k0, 0.0))
    flux = np.divide(2.0 * ka, kappa, out=np.full(ka.shape, np.inf),
                     where=kappa > 0.0)
    return np.where(kb <= k0, 2.0, np.minimum(2.0 + 2.0 * kb * reach, flux))


def _region_pair(f: TestFunction, fs: TestFunction, region, parts: int,
                 spec: QuadratureSpec) -> _Rule:
    """The rule of one of the parts sub-regions of the interior with its
    pair (C, S) built: see module docstring.

    The pair is built on first use and kept on the memoized rule, so both
    channels and both sign families share one build.  C and S are
    interpolated in k over [k_min, k_max], each certified at its share of
    the interior's budget against the bound on the factor it is read with.
    """
    rule = _region_rule(f, fs, region, spec)
    if rule.pair is None:
        k_lo = _K_EPS_FRACTION * spec.k_max
        n0 = _seed_panels(spec.k_max - k_lo, region[1] - region[0])
        tol = _piece_tol(spec) / (2.0 * parts)
        rule.pair = tuple(
            _chebyshev_panels(partial(_pair_direct, rule, fs.model, which),
                              k_lo, spec.k_max, n0, tol, spec.max_subdivisions,
                              partial(_interior_bound, fs.model, rule.center,
                                      which))
            for which in (0, 1))
    return rule


class EnergyAmplitude:
    """Spectral amplitudes of one test function in one sign family.

    The callable attribute amplitude(E, channel) returns the amplitude at
    energy E > 0 (scalar or array), exactly zero beyond the truncation
    energy.  osc_hint reports the dominant oscillation rate in k for
    integrals over the spectrum; max_interp_error bounds the cache error.
    cache_points counts the distinct interpolation points the amplitudes
    read; every cache serves both channels.
    """

    __slots__ = ("model", "sign", "hbar", "mass", "k_min", "k_max", "scale",
                 "max_interp_error", "cache_points", "osc_hint", "_sides",
                 "_interior")

    def __init__(self, model, sign, spec: QuadratureSpec, sides, interior,
                 scale=1.0):
        """sides holds the rule of the support's part left of a and right
        of b, None where that part is empty; interior holds the rules of
        its sub-regions inside [a, b] with their pairs built, or is empty."""
        self.model = model
        self.sign = sign
        self.hbar = model.hbar
        self.mass = model.mass
        self.k_min = _K_EPS_FRACTION * spec.k_max
        self.k_max = spec.k_max
        self.scale = scale
        self._sides = sides
        self._interior = interior
        caches = [rule.fourier for rule in sides if rule is not None]
        pairs = [p for rule in interior for p in rule.pair]
        self.cache_points = sum(p.points for p in caches + pairs)
        # The pairs' errors are already weighted by the bounds on psi and
        # psi', so their sum bounds the interior piece.
        self.max_interp_error = scale * _INTERP_SAFETY * _PIECES_PER_CHANNEL * max(
            [p.max_err for p in caches] + [sum(p.max_err for p in pairs)])
        self.osc_hint = max(
            (abs(rule.center) for rule in sides if rule is not None),
            default=0.0)

    @property
    def e_cut(self) -> float:
        return (self.hbar * self.k_max) ** 2 / (2.0 * self.mass)

    def _at(self, sol, channels=(Channel.LEFT, Channel.RIGHT), k=None) -> dict:
        """Amplitudes of the channels at wave numbers k, by default those of
        the matching solution sol.

        sol holds the matching data at k, or at k clipped to the cache
        range; the exterior weights and the interior (psi, psi') come from
        it, so no second solve is needed.  Each side's G(-k) and G(k) are
        one read of its F at (-k, k), exp(-i k x0) the conjugate of
        exp(i k x0); they and each sub-region's C(k) and S(k) are formed
        once for all channels.
        """
        if k is None:
            k = sol.k
        kc = np.clip(k, self.k_min, self.k_max)
        out = {c: np.zeros(k.shape, dtype=complex) for c in channels}
        signed = np.concatenate([-kc, kc])
        for rule, weights in zip(self._sides, _exterior_weights(sol, self.sign)):
            if rule is None:
                continue
            f_minus, f_plus = np.split(rule.fourier(signed), 2)
            wave = _cis(rule.center * kc)
            g_minus = f_minus * np.conj(wave)
            g_plus = f_plus * wave
            for c in channels:
                w_a, w_b = weights[c]
                out[c] += np.conj(w_a) * g_minus + np.conj(w_b) * g_plus
        if self._interior:
            centers = np.array([rule.center for rule in self._interior])
            c_vals, s_vals = (
                np.stack([rule.pair[i](kc) for rule in self._interior], axis=1)
                for i in (0, 1))
            for c in channels:
                psi, dpsi = _interior_waves(sol, c, centers)
                if self.sign is SignLabel.PLUS:
                    psi, dpsi = np.conj(psi), np.conj(dpsi)
                out[c] += np.sum(psi * c_vals + dpsi * s_vals, axis=1)
        pref = energy_prefactor(self.model, np.clip(k, self.k_min, None))
        for c in channels:
            out[c] *= self.scale
            out[c][k > self.k_max] = 0.0
            out[c] *= pref
        return out

    def amplitude(self, energy, channel: Channel):
        e_arr = np.atleast_1d(np.asarray(energy, dtype=float))
        if np.any(e_arr <= 0.0):
            raise DomainError("amplitudes live on the open spectrum E > 0")
        k = self.hbar ** -1 * np.sqrt(2.0 * self.mass * e_arr)
        # The matching is solved inside the cache range, where it is finite
        # for every energy the spectrum admits.
        kc = np.clip(k, self.k_min, self.k_max)
        sol = _matching(self.model, (self.hbar * kc) ** 2 / (2.0 * self.mass))
        vals = self._at(sol, (channel,), k)[channel]
        if np.ndim(energy) == 0:
            return complex(vals[0])
        return vals


class MomentumAmplitude:
    """Plane-wave amplitude of a test function: p maps to <p|f>.

    <p|f> = factor * exp(-i p x0 / hbar) * F(-p / hbar), with F the
    Fourier cache of the whole support, x0 = demod its middle, and factor
    the plane-wave norm times the amplitude scale.
    """

    __slots__ = ("model", "hbar", "p_max", "demod", "max_interp_error",
                 "cache_points", "osc_hint", "_fourier", "_factor")

    def __init__(self, model, spec: QuadratureSpec, demod, fourier: _Panels,
                 scale=1.0):
        self.model = model
        self.hbar = model.hbar
        self.p_max = model.hbar * spec.k_max
        self.demod = demod
        self._fourier = fourier
        norm = _plane_wave_norm(model.hbar)
        self._factor = scale * norm
        self.cache_points = fourier.points
        self.max_interp_error = scale * _INTERP_SAFETY * (norm * fourier.max_err)
        self.osc_hint = abs(demod) / model.hbar

    def amplitude(self, p):
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.isnan(p_arr).any():
            raise DomainError("momentum amplitudes need numeric momenta, got nan")
        pc = np.clip(p_arr, -self.p_max, self.p_max)
        vals = self._factor * self._fourier(-pc / self.hbar) * _cis(
            -self.demod * pc / self.hbar)
        vals[np.abs(p_arr) > self.p_max] = 0.0
        if np.ndim(p) == 0:
            return complex(vals[0])
        return vals


_ENERGY_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MOMENTUM_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _tail_mass(edge: float, cut: float) -> float:
    """Mass of a spectral density past its cutoff, from its value there.

    Amplitudes of test functions fall faster than any power, but for
    packets near the barrier the windows keep them large at the usual
    cutoffs: between half the cutoff energy and the cutoff their density
    falls only like E^-1.3 to E^-2.5.  The mass past the cutoff is taken as
    if the density decayed like t^-_TAIL_POWER (t the energy or momentum).
    On such packets this came out 1.2 to 2.4 times the mass the truncation
    actually loses, read off as the deficit of the total probability.
    """
    return edge * cut / (_TAIL_POWER - 1.0)


def _energy_tail(amp: EnergyAmplitude) -> float:
    e_probe = amp.e_cut * (1.0 - 1e-12)
    vals = amp._at(_matching(amp.model, np.array([e_probe])))
    edge = sum(abs(v[0]) ** 2 for v in vals.values())
    return _tail_mass(edge, amp.e_cut)


def _certify_cutoff(amp, tail: float, f: TestFunction, spec: QuadratureSpec,
                    cutoff: str):
    """Refuse an expansion that misses f by more than abs_tol in norm.

    The part of f the truncated expansion drops has norm sqrt(tail).  A
    looser test on the mass itself (tail <= abs_tol * (f, f)) would keep
    probabilities within abs_tol but lets reconstructions err by about
    sqrt(abs_tol) * ||f||.  Where f's support passes the spatial radius,
    the clipped f jumps there and its spectrum never decays, so the advice
    is a larger radius, not a larger cutoff.
    """
    limit = (spec.abs_tol ** 2) * inner_product(f, f, spec).real
    if tail > limit:
        lo, hi = f.support_interval(spec.spatial_radius)
        radius = spec.spatial_radius
        advice = (f"f's support [{lo:.6g}, {hi:.6g}] passes spatial_radius "
                  f"{radius:g}; raise spatial_radius"
                  if lo < -radius or hi > radius else "raise k_max")
        raise AccuracyError(
            f"mass beyond the {cutoff} cutoff ({tail:.3e}) exceeds "
            f"(abs_tol * ||f||)^2 = {limit:.3e}; {advice}",
            value=amp, error=math.sqrt(tail))


def energy_transform(f: TestFunction, sign: SignLabel,
                     spec: QuadratureSpec) -> EnergyAmplitude:
    """Analyze f against the chosen family of generalized eigenfunctions.

    Raises AccuracyError, with the amplitude as its value, when the part of
    f beyond the cutoff energy cannot be neglected at spec.abs_tol.
    """
    _member(f, "energy_transform")
    memo = _ENERGY_MEMO.setdefault(f, {})
    key = (sign, spec)
    if key in memo:
        return memo[key]
    model = f.model
    lo, hi = _support(f, spec)
    scale = _amplitude_scale(f, lo, hi)
    fs = f if scale == 1.0 else f.scaled(1.0 / scale)
    # An empty support leaves every region empty.
    sides = tuple(_region_fourier(f, fs, region, spec)
                  if region[1] > region[0] else None
                  for region in ((lo, min(model.a, hi)), (max(model.b, lo), hi)))
    interior = ()
    lo_in, hi_in = max(model.a, lo), min(model.b, hi)
    if hi_in > lo_in:
        parts = max(1, math.ceil(_barrier_top(model) * (hi_in - lo_in)
                                 / (2.0 * _INTERIOR_GROWTH)))
        edges = np.linspace(lo_in, hi_in, parts + 1).tolist()
        interior = tuple(_region_pair(f, fs, region, parts, spec)
                         for region in zip(edges[:-1], edges[1:]))
    amp = EnergyAmplitude(model, sign, spec, sides, interior, scale)
    _certify_cutoff(amp, _energy_tail(amp), f, spec, "k_max")
    memo[key] = amp
    return amp


def _synthesis_panels(sample, ncols: int):
    """Panel evaluator (see quadrature._adaptive) of a synthesis integral.

    sample(k) describes the integrand at one round's nodes k as
    (waves, rows).  Each wave (cols, freqs, a, b) says that the integrand's
    columns cols are a(k) exp(i k freqs) + b(k) exp(-i k freqs), b None for
    a single wave; its panel sums are one _panel_waves call, the conjugate
    of exp(-i k freqs) being exp(i k freqs), so b enters conjugated and its
    sums are conjugated back.  rows, when not None, is (cols, values) for
    columns formed pointwise, values (nodes, columns), contracted with the
    weights.
    """
    def evaluate(mid, half, offsets, widths):
        k = mid[:, None] + half[:, None] * offsets[:, None]   # (parts, panels, t)
        w = (widths[:, None] * half)[:, :, None] * _GL_W
        waves, rows = sample(k.ravel())
        out = np.empty((mid.size, offsets.shape[0], ncols), dtype=complex)
        for cols, freqs, a, b in waves:
            coef = np.stack([a] if b is None else [a, np.conj(b)])
            sums = _panel_waves(coef.reshape((-1,) + k.shape) * w, mid, half,
                                offsets, freqs)
            if b is not None:
                sums[0] += np.conj(sums[1])
            out[:, :, cols] = sums[0].transpose(1, 0, 2)
        if rows is not None:
            cols, values = rows
            out[:, :, cols] = np.einsum("sptc,spt->psc",
                                        values.reshape(k.shape + (-1,)), w)
        return out, ncols

    return evaluate


def _positions(x) -> np.ndarray:
    """The synthesis positions x flattened to 1-d, refusing non-finite ones,
    which no panel count of the spectral integral can resolve."""
    x_arr = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x_arr).all():
        raise DomainError("synthesis needs finite positions")
    return x_arr


def _shaped(vals: np.ndarray, x):
    """Synthesized values, one per flattened position, in the shape of x."""
    if np.ndim(x) == 0:
        return complex(vals[0])
    return vals.reshape(np.shape(x))


def synthesize_energy(amp: EnergyAmplitude, x, spec: QuadratureSpec,
                      channels=(Channel.LEFT, Channel.RIGHT)):
    """Reconstruct position values from spectral amplitudes.

    Integrates sum over channels of eigenfunction times amplitude across the
    spectrum.  x may be a scalar or an array (handled as one batched
    integral); channels can be restricted to probe degeneracy.

    The integral runs in k over [0, k_max], dE = hbar^2 k / m dk.  Outside
    the barrier the channel sum is (sum over c of amp_c A_c) exp(ikx) +
    (sum over c of amp_c B_c) exp(-ikx), the weights (A, B) from
    eigenbasis._exterior_weights, so each side is one wave pair of
    _synthesis_panels; inside it the sum is formed from _wave_grid's rows.
    """
    model = amp.model
    x_arr = _positions(x)
    if not x_arr.size:
        return np.zeros(np.shape(x), dtype=complex)
    left, right = x_arr < model.a, x_arr > model.b
    mid = ~(left | right)
    jac = model.hbar ** 2 / model.mass

    def sample(k):
        sol = _matching(model, (model.hbar * k) ** 2 / (2.0 * model.mass))
        pref = energy_prefactor(model, sol.k) * (jac * k)
        vals = {c: v * pref for c, v in amp._at(sol, channels).items()}
        waves = [(cols, x_arr[cols],
                  sum(vals[c] * weights[c][0] for c in channels),
                  sum(vals[c] * weights[c][1] for c in channels))
                 for cols, weights in zip((left, right),
                                          _exterior_weights(sol, amp.sign))
                 if cols.any()]
        rows = None
        if mid.any():
            rows = (mid, sum(vals[c][:, None] * _wave_grid(
                sol, c, amp.sign, x_arr[mid], include_prefactor=False)
                for c in channels))
        return waves, rows

    hint = float(np.max(np.abs(x_arr))) + amp.osc_hint
    vals, _, _, _, _ = _adaptive(_synthesis_panels(sample, x_arr.size), 0.0,
                                 spec.k_max, spec, hint)
    return _shaped(vals, x)


def momentum_transform(f: TestFunction, direction: str = "analysis",
                       spec: QuadratureSpec | None = None):
    """Plane-wave analysis of f, or the inverse synthesis map.

    direction "analysis" returns a MomentumAmplitude; "synthesis" returns a
    callable that evaluates the inverse transform of f's analysis pointwise,
    which reproduces f up to quadrature tolerance.
    """
    _member(f, "momentum_transform")
    if spec is None:
        spec = QuadratureSpec()
    if direction == "synthesis":
        amp = momentum_transform(f, "analysis", spec)
        return lambda x: synthesize_momentum(amp, x, spec)
    if direction != "analysis":
        raise DomainError(f"unknown transform direction {direction!r}")
    memo = _MOMENTUM_MEMO.setdefault(f, {})
    if spec in memo:
        return memo[spec]
    model = f.model
    lo, hi = _support(f, spec)
    p_max = model.hbar * spec.k_max
    if hi <= lo:
        zero = _Panels(np.array([-spec.k_max, spec.k_max]),
                       np.zeros((1, _DEGREE + 1), dtype=complex))
        amp = MomentumAmplitude(model, spec, 0.0, zero)
        memo[spec] = amp
        return amp
    fscale = _amplitude_scale(f, lo, hi)
    fs = f if fscale == 1.0 else f.scaled(1.0 / fscale)
    rule = _region_fourier(f, fs, (lo, hi), spec)
    amp = MomentumAmplitude(model, spec, rule.center, rule.fourier, fscale)
    edge = abs(amp.amplitude(p_max)) ** 2 + abs(amp.amplitude(-p_max)) ** 2
    _certify_cutoff(amp, _tail_mass(edge, p_max), f, spec, "p_max")
    memo[spec] = amp
    return amp


def synthesize_momentum(amp: MomentumAmplitude, x, spec: QuadratureSpec):
    """Inverse plane-wave transform at x (scalar or array)."""
    hbar = amp.hbar
    x_arr = _positions(x)
    if not x_arr.size:
        return np.zeros(np.shape(x), dtype=complex)
    scale = _plane_wave_norm(hbar)

    def sample(p):
        return [(slice(None), x_arr / hbar, amp.amplitude(p) * scale, None)], None

    hint = (float(np.max(np.abs(x_arr))) + abs(amp.demod)) / hbar
    vals, _, _, _, _ = _adaptive(_synthesis_panels(sample, x_arr.size),
                                 -amp.p_max, amp.p_max, spec, hint)
    return _shaped(vals, x)


_SIGNS = {"energy+": SignLabel.PLUS, "energy-": SignLabel.MINUS}

# The basis in which each observable is diagonal.
_OBSERVABLE_BASIS = {Observable.Q: "position", Observable.P: "momentum",
                     Observable.H: "energy+"}


def _spectral_overlap(f: TestFunction, g: TestFunction, basis: str,
                      spec: QuadratureSpec, powers=(0,)) -> np.ndarray:
    """The overlap of f and g expanded in a basis, weighted by the basis
    variable to each power: one column per power, on shared panels.

    basis is one of "position" (the integral of conj(f) x^power g over the
    union of the two supports), "momentum" (of the plane-wave amplitudes
    against p^power) and "energy+" or "energy-" (of the channel-summed
    energy amplitudes of that family against E^power).
    """
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    model = f.model

    def weighted(w, v):
        return v[:, None] * np.stack([w ** p for p in powers], axis=1)

    if basis == "position":
        lo_f, hi_f = _support(f, spec)
        lo_g, hi_g = _support(g, spec)
        lo, hi = min(lo_f, lo_g), max(hi_f, hi_g)
        if hi <= lo:
            return np.zeros(len(powers), dtype=complex)
        return _run(lambda x: weighted(x, _product(f, g, x)), lo, hi, spec,
                    f.max_phase() + g.max_phase(), (model.a, model.b)).value
    if basis == "momentum":
        af = momentum_transform(f, "analysis", spec)
        ag = momentum_transform(g, "analysis", spec)

        def integrand(p):
            return weighted(p, np.conj(np.atleast_1d(af.amplitude(p)))
                            * np.atleast_1d(ag.amplitude(p)))

        return integrate_line(integrand, spec, lo=-af.p_max, hi=af.p_max,
                              freq_hint=af.osc_hint + ag.osc_hint).value
    if basis not in _SIGNS:
        raise DomainError(f"unknown expansion basis {basis!r}")
    af = energy_transform(f, _SIGNS[basis], spec)
    ag = energy_transform(g, _SIGNS[basis], spec)

    def integrand(e):
        sol = _matching(model, e)
        vf = af._at(sol)
        vg = vf if ag is af else ag._at(sol)
        total = np.zeros(np.shape(e), dtype=complex)
        for channel in (Channel.LEFT, Channel.RIGHT):
            total += np.conj(vf[channel]) * vg[channel]
        return weighted(e, total)

    return integrate_energy(integrand, spec, hbar=model.hbar, mass=model.mass,
                            freq_hint=af.osc_hint + ag.osc_hint).value


def parseval_defect(f: TestFunction, g: TestFunction, basis: str,
                    spec: QuadratureSpec) -> float:
    """|(f, g) - overlap expanded in the chosen basis|.

    basis is one of "position", "momentum", "energy+", "energy-".  The
    position case integrates the same product over the union of the two
    supports, where inner_product takes their intersection, so it probes
    only the quadrature itself.
    """
    (expanded,) = _spectral_overlap(f, g, basis, spec)
    return float(abs(inner_product(f, g, spec) - expanded))


def _moments(observable: Observable, f: TestFunction, g: TestFunction,
             spec: QuadratureSpec, powers) -> np.ndarray:
    """(f, A^power g) per power, in the basis where A is diagonal."""
    basis = _OBSERVABLE_BASIS.get(observable)
    if basis is None:
        raise DomainError(f"unknown observable {observable!r}")
    return _spectral_overlap(f, g, basis, spec, powers)


def spectral_matrix_element(observable: Observable, f: TestFunction,
                            g: TestFunction, spec: QuadratureSpec) -> complex:
    """(f, A g) computed on the spectral side of the expansion.

    Q weighs the position overlap by x, P weighs the plane-wave overlap by
    p, H weighs the channel-summed energy overlap by E.  The direct route
    through apply_observable must agree within tolerance; tests hold the two
    against each other.
    """
    return complex(_moments(observable, f, g, spec, (1,))[0])


def expectation_uncertainty(observable: Observable, f: TestFunction,
                            spec: QuadratureSpec) -> tuple[float, float]:
    """Mean and spread of the observable in the normalized state f."""
    n2 = inner_product(f, f, spec).real
    if not n2 > 0.0:
        raise DomainError("expectation values need a nonzero test function")
    mean, second = (_moments(observable, f, f, spec, (1, 2)).real
                    / n2).tolist()
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def spectral_probability(f: TestFunction, e_lo: float, e_hi: float,
                         sign: SignLabel, spec: QuadratureSpec,
                         details: bool = False):
    """Probability that an energy measurement of f lands in [e_lo, e_hi].

    f must arrive normalized (norm within 1e-8 of one); e_hi may be inf, in
    which case the integral truncates at the cache cutoff and a power-law
    tail estimate is reported through details.  With details=True the return
    is (probability, info dict).
    """
    if not (0.0 <= e_lo < e_hi):
        raise DomainError("energy window must satisfy 0 <= e_lo < e_hi")
    n2 = inner_product(f, f, spec).real
    if abs(n2 - 1.0) > _NORM_PROBE_TOL:
        raise DomainError(
            f"spectral probabilities need a normalized state; (f,f) = {n2!r}")
    amp = energy_transform(f, sign, spec)
    model = f.model
    hi_eff = min(e_hi, amp.e_cut)

    def integrand(e):
        # One column per channel, both read from one matching solve.
        vals = amp._at(_matching(model, e)).values()
        return np.stack([np.abs(v) ** 2 for v in vals], axis=1) + 0j

    values = np.zeros(len(Channel))
    if hi_eff > e_lo:
        # A window empty in k (e_lo at the cutoff) integrates to one 0j.
        values += integrate_energy(
            integrand, spec, hbar=model.hbar, mass=model.mass, e_lo=e_lo,
            e_hi=hi_eff, freq_hint=2.0 * amp.osc_hint).value.real
    per_channel = dict(zip(Channel, values.tolist()))
    prob = sum(per_channel.values())
    tail = _energy_tail(amp) if e_hi > amp.e_cut else 0.0
    if details:
        info = {
            "e_cut": amp.e_cut,
            "tail_estimate": tail,
            "per_channel": {c.name.lower(): v for c, v in per_channel.items()},
            "norm_sq": n2,
        }
        return prob, info
    return prob
