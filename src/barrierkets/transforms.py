"""Energy and momentum expansions of test functions, as executable transforms.

The energy analysis of f produces, per incidence channel, the amplitude

    amp(E, c) = integral of conj(u_c(x; E)) f(x) dx,

with u_c the generalized eigenfunction.  Synthesis integrates the amplitudes
against the eigenfunctions over the spectrum and reproduces f; it and the
overlaps are line integrals handled by the quadrature module.

Amplitude values are needed at thousands of quadrature nodes, so transforms
build a certified interpolation cache.  The amplitude itself oscillates in k
roughly like exp(i k x0) with x0 the packet position, which would force a
very dense grid; instead the cache stores demodulated pieces.  Each exterior
region of the eigenfunction contributes terms coeff(k) * exp(+-ikx), so the
piece integrals

    S(k) = coeff(k) * integral over region of exp(i s k (x - x0)) f(x) dx,

x0 the middle of the region, vary on the scale of the packet width only.
Each piece is interpolated by degree-16 Chebyshev polynomials on panels that
cover [k_lo, k_max] (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013).  A panel is accepted when the last two coefficients of
its Chebyshev series and its error at two held-out probe points are below a
fixed fraction of the quadrature tolerance (the chopping test of Aurentz and
Trefethen, ACM TOMS 43, 2017); otherwise it is bisected, and its probes
become nodes of its halves.  The amplitude is reassembled as sum of
panels(k) * exp(i s k x0) terms times the spectral prefactor.  The barrier
interior, when it meets the support, is one more piece, integrated against
the eigenfunction itself; it is short, so it is slow in k.

The spatial integrals behind every piece use one fixed rule per region of f:
the composite 32-point Gauss-Legendre panels on which the adaptive
quadrature engine, in its signed mode (see the quadrature module),
integrates f against plane-wave probes (and, inside the barrier,
eigenfunction probes) at wave numbers across [-k_max, k_max], starting from
panels sized for the top frequency k_max plus f's phase.  f is sampled on
the rule once, so a piece's values at any array of wave numbers are one
product of the kernel matrix with the weighted samples.  The pieces of both
channels and both sign families, and the momentum analysis, share the
rules.

An expansion truncated at k_max cannot see the part of f beyond the cutoff.
After each build the mass of that part is bounded from the amplitudes at the
cutoff (see _tail_mass), and a build that would miss f by more than abs_tol
in norm raises AccuracyError carrying the amplitude object instead of
returning truncated answers.

Transforms are memoized per (function, sign, tolerance spec); caches are
write-once and all callables are pure.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import replace as drep

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import AccuracyError, DomainError
from .model import BarrierModel, Observable
from .quadrature import (
    _GL_W,
    _GL_X,
    QuadratureSpec,
    _adaptive,
    integrate_energy,
    integrate_energy_batch,
    integrate_line,
    integrate_line_batch,
)
from .scattering import Channel, SignLabel, _solve
from .eigenbasis import _wave_grid, energy_prefactor
from .testspace import TestFunction, _support, evaluate, inner_product

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
# amplitude; split over the four possible pieces of one channel.
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
# Kernel entries (wave numbers times nodes) formed at once.
_BLOCK_ENTRIES = 1 << 18


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


class _Panels:
    """Piecewise Chebyshev interpolant: sorted panel edges, one series each."""

    __slots__ = ("edges", "coeffs")

    def __init__(self, edges: np.ndarray, coeffs: np.ndarray):
        self.edges = edges    # (P + 1,)
        self.coeffs = coeffs  # (P, _DEGREE + 1)

    def __call__(self, k: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.edges, k, side="right") - 1,
                      0, len(self.coeffs) - 1)
        a, b = self.edges[idx], self.edges[idx + 1]
        t = (2.0 * k - (a + b)) / (b - a)
        return cheb.chebval(t, self.coeffs[idx].T, tensor=False)


def _seed_panels(span: float, region_len: float) -> int:
    return max(1, math.ceil(span * region_len / _SEED_WIDTH))


def _chebyshev_panels(direct, lo: float, hi: float, n0: int, tol: float,
                      cap: int):
    """See module docstring: certified piecewise Chebyshev interpolation.

    direct maps a sorted array of wave numbers to values; it is called once
    per refinement round, never twice at one wave number.  Returns the
    interpolant, the number of direct evaluations and the largest accepted
    panel error.
    """
    known = {}
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
        new = [k for k in wanted.tolist() if k not in known]
        if len(known) + len(new) > cap:
            raise AccuracyError(
                "amplitude cache refinement exhausted its point budget",
                error=worst)
        if new:
            known.update(zip(new, direct(np.array(new)).tolist()))
        node_vals = np.array([[known[k] for k in row] for row in nodes.tolist()])
        probe_vals = np.array([[known[k] for k in row] for row in probes.tolist()])
        coeffs = node_vals @ _TO_CHEB.T
        tail = np.abs(coeffs[:, -2:]).max(axis=1)
        fit = cheb.chebval(np.array([-0.5, 0.5]), coeffs.T)
        err = np.maximum(tail, np.abs(fit - probe_vals).max(axis=1))
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
    return (_Panels(edges, np.concatenate(done_coeffs)[order]), len(known),
            worst)


class _Piece:
    """One demodulated amplitude component on its own Chebyshev panels."""

    __slots__ = ("region", "s", "coeff", "demod", "panels", "points", "max_err")

    def __init__(self, region, s, coeff, demod):
        self.region = region
        self.s = s          # exponent sign of exp(i s k x); 0 marks interior
        self.coeff = coeff  # "one" | "refl" | "trans" | "interior"
        self.demod = demod
        self.panels = None
        self.points = 0
        self.max_err = 0.0

    def assemble(self, k: np.ndarray) -> np.ndarray:
        vals = self.panels(k)
        if self.s:
            vals = vals * np.exp(1j * self.s * self.demod * k)
        return vals


def _channel_pieces(model: BarrierModel, channel: Channel, lo: float, hi: float,
                    sign: SignLabel):
    """Exterior pieces of one channel's analysis kernel over support [lo, hi].

    Exponent signs start in the plus-family convention; the plus analysis
    conjugates the kernel, so its pieces carry the flipped effective sign.
    """
    left = (lo, min(model.a, hi))
    right = (max(model.b, lo), hi)
    mid = (max(model.a, lo), min(model.b, hi))
    flip = -1 if sign is SignLabel.PLUS else 1
    out = []

    def center(r):
        return 0.5 * (r[0] + r[1])

    if channel is Channel.LEFT:
        exterior = [(left, +1, "one"), (left, -1, "refl"), (right, +1, "trans")]
    else:
        exterior = [(right, -1, "one"), (right, +1, "refl"), (left, -1, "trans")]
    for region, s0, kind in exterior:
        if region[1] > region[0]:
            out.append(_Piece(region, flip * s0, kind, center(region)))
    if mid[1] > mid[0]:
        out.append(_Piece(mid, 0, "interior", 0.0))
    return out


class _Rule:
    """Composite Gauss-Legendre rule on one region, with f sampled on it.

    x holds the nodes and wf the weights times the scaled function there,
    so the integral of f against any kernel over the region is
    kernel(x) @ wf.
    """

    __slots__ = ("x", "wf")

    def __init__(self, x: np.ndarray, wf: np.ndarray):
        self.x = x
        self.wf = wf


_RULE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _region_rule(f: TestFunction, fs: TestFunction, region, spec: QuadratureSpec
                 ) -> _Rule:
    """The certified rule of fs, f's scaled copy, on one region.

    Memoized per (f, region, spec): the pieces of both channels and both
    sign families, and the momentum analysis, share one rule per region.
    """
    rules = _RULE_MEMO.setdefault(f, {})
    key = (region, spec)
    if key not in rules:
        rules[key] = _build_rule(fs, region, spec)
    return rules[key]


def _build_rule(fs: TestFunction, region, spec: QuadratureSpec) -> _Rule:
    """See module docstring: one spatial rule, certified at the top frequency.

    The adaptive engine integrates fs against the probe kernels in its
    signed mode, at the inner tolerance; the rule is the panels it returns
    with fs sampled on them once.
    """
    lo, hi = region
    model = fs.model
    ispec = _inner_spec(spec)
    k = np.linspace(_K_EPS_FRACTION * spec.k_max, spec.k_max, _RULE_PROBES)
    kappa = np.concatenate([-k[::-1], k])
    center = 0.5 * (lo + hi)
    # The probes are the kernels the rule will meet: plane waves of both
    # signs, and inside the barrier the eigenfunctions themselves.
    sol = None
    if model.a <= lo and hi <= model.b:
        sol = _solve(model, (model.hbar * k) ** 2 / (2.0 * model.mass))

    def probes(x):
        cols = [_cis(np.outer(x - center, kappa))]
        if sol is not None:
            cols += [_wave_grid(model, sol, c, s, x, include_prefactor=False).T
                     for c in Channel for s in SignLabel]
        return evaluate(fs, x)[:, None] * np.concatenate(cols, axis=1)

    _, _, a, b, _ = _adaptive(probes, lo, hi, ispec.abs_tol, ispec.rel_tol,
                              spec.max_subdivisions,
                              spec.k_max + fs.max_phase(), signed=True)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    wf = (half[:, None] * _GL_W) * evaluate(fs, x.ravel()).reshape(x.shape)
    return _Rule(x.ravel(), wf.ravel())


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real phase: one cos and one sin, no complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _apply_rule(rule: _Rule, k_arr: np.ndarray, kernel) -> np.ndarray:
    """kernel(k) @ rule.wf over blocks of k_arr; kernel gives (k, nodes)."""
    out = np.empty(k_arr.size, dtype=complex)
    step = max(1, _BLOCK_ENTRIES // rule.x.size)
    for start in range(0, k_arr.size, step):
        chunk = k_arr[start:start + step]
        out[start:start + chunk.size] = kernel(chunk) @ rule.wf
    return out


def _piece_direct(model: BarrierModel, rule: _Rule, piece: _Piece,
                  channel: Channel, sign: SignLabel,
                  k_arr: np.ndarray) -> np.ndarray:
    """Piece values at the given wave numbers, conjugation folded in.

    Each value is one product of a kernel with the region's rule: for the
    interior piece the eigenfunction itself, for an exterior piece
    exp(i s k (x - x0)), which carries the demodulation by the region's
    centre x0, times the matching coefficient.
    """
    conjugate = sign is SignLabel.PLUS
    # The plus analysis integrates against conj(plus wave) = minus wave.
    family = SignLabel.MINUS if conjugate else SignLabel.PLUS

    def energies(k):
        return (model.hbar * k) ** 2 / (2.0 * model.mass)

    if piece.s == 0:
        return _apply_rule(rule, k_arr, lambda k: _wave_grid(
            model, _solve(model, energies(k)), channel, family, rule.x,
            include_prefactor=False))
    shift = rule.x - piece.demod
    vals = _apply_rule(rule, k_arr,
                       lambda k: _cis(piece.s * np.outer(k, shift)))
    if piece.coeff == "one":
        return vals
    sol = _solve(model, energies(k_arr))
    coeff = sol.t if piece.coeff == "trans" else (
        sol.r_l if channel is Channel.LEFT else sol.r_r)
    return vals * (np.conj(coeff) if conjugate else coeff)


def _momentum_direct(model: BarrierModel, rule: _Rule, demod: float,
                     p_arr: np.ndarray) -> np.ndarray:
    """Plane-wave amplitudes at the given momenta, demodulated by demod."""
    shift = rule.x - demod
    norm = 1.0 / math.sqrt(2.0 * math.pi * model.hbar)
    return norm * _apply_rule(rule, p_arr, lambda p: _cis(
        np.outer(p, shift) * (-1.0 / model.hbar)))


class EnergyAmplitude:
    """Spectral amplitudes of one test function in one sign family.

    The callable attribute amplitude(E, channel) returns the amplitude at
    energy E > 0 (scalar or array), exactly zero beyond the truncation
    energy.  osc_hint reports the dominant oscillation rate in k for
    integrals over the spectrum; max_interp_error bounds the cache error.
    """

    __slots__ = ("model", "sign", "hbar", "mass", "k_min", "k_max", "scale",
                 "max_interp_error", "cache_points", "osc_hint", "_pieces")

    def __init__(self, model, sign, spec: QuadratureSpec, pieces, scale=1.0):
        self.model = model
        self.sign = sign
        self.hbar = model.hbar
        self.mass = model.mass
        self.k_min = _K_EPS_FRACTION * spec.k_max
        self.k_max = spec.k_max
        self.scale = scale
        self._pieces = pieces
        self.cache_points = {c: sum(p.points for p in ps) for c, ps in pieces.items()}
        self.max_interp_error = scale * _INTERP_SAFETY * _PIECES_PER_CHANNEL * max(
            (p.max_err for ps in pieces.values() for p in ps), default=0.0)
        self.osc_hint = max(
            (abs(p.demod) for ps in pieces.values() for p in ps), default=0.0)

    @property
    def e_cut(self) -> float:
        return (self.hbar * self.k_max) ** 2 / (2.0 * self.mass)

    def reduced(self, k, channel: Channel):
        """Amplitude divided by the spectral prefactor, as a function of k."""
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        kc = np.clip(k_arr, self.k_min, self.k_max)
        total = np.zeros(k_arr.shape, dtype=complex)
        for piece in self._pieces[channel]:
            total += piece.assemble(kc)
        total *= self.scale
        total[k_arr > self.k_max] = 0.0
        if np.ndim(k) == 0:
            return complex(total[0])
        return total

    def amplitude(self, energy, channel: Channel):
        e_arr = np.atleast_1d(np.asarray(energy, dtype=float))
        if np.any(e_arr <= 0.0):
            raise DomainError("amplitudes live on the open spectrum E > 0")
        k = self.hbar ** -1 * np.sqrt(2.0 * self.mass * e_arr)
        vals = self.reduced(k, channel)
        vals = np.atleast_1d(vals) * energy_prefactor(
            self.model, np.clip(k, self.k_min, None))
        vals[k > self.k_max] = 0.0
        if np.ndim(energy) == 0:
            return complex(vals[0])
        return vals


class MomentumAmplitude:
    """Plane-wave amplitude of a test function: p maps to <p|f>."""

    __slots__ = ("model", "hbar", "p_max", "demod", "panels", "scale",
                 "max_interp_error", "cache_points", "osc_hint")

    def __init__(self, model, spec: QuadratureSpec, demod, panels, points,
                 max_err, scale=1.0):
        self.model = model
        self.hbar = model.hbar
        self.p_max = model.hbar * spec.k_max
        self.demod = demod
        self.panels = panels
        self.scale = scale
        self.cache_points = points
        self.max_interp_error = scale * _INTERP_SAFETY * max_err
        self.osc_hint = abs(demod) / model.hbar

    def amplitude(self, p):
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        pc = np.clip(p_arr, -self.p_max, self.p_max)
        vals = self.scale * self.panels(pc) * np.exp(
            -1j * self.demod * pc / self.hbar)
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
    edge = sum(abs(amp.amplitude(e_probe, c)) ** 2
               for c in (Channel.LEFT, Channel.RIGHT))
    return _tail_mass(edge, amp.e_cut)


def _certify_cutoff(amp, tail: float, f: TestFunction, spec: QuadratureSpec,
                    cutoff: str):
    """Refuse an expansion that misses f by more than abs_tol in norm.

    The part of f the truncated expansion drops has norm sqrt(tail).  A
    looser test on the mass itself (tail <= abs_tol * (f, f)) would keep
    probabilities within abs_tol but lets reconstructions err by about
    sqrt(abs_tol) * ||f||.
    """
    limit = (spec.abs_tol ** 2) * inner_product(f, f, spec).real
    if tail > limit:
        raise AccuracyError(
            f"mass beyond the {cutoff} cutoff ({tail:.3e}) exceeds "
            f"(abs_tol * ||f||)^2 = {limit:.3e}; raise k_max",
            value=amp, error=math.sqrt(tail))


def energy_transform(f: TestFunction, sign: SignLabel,
                     spec: QuadratureSpec) -> EnergyAmplitude:
    """Analyze f against the chosen family of generalized eigenfunctions.

    Raises AccuracyError, with the amplitude as its value, when the part of
    f beyond the cutoff energy cannot be neglected at spec.abs_tol.
    """
    memo = _ENERGY_MEMO.setdefault(f, {})
    key = (sign, spec)
    if key in memo:
        return memo[key]
    model = f.model
    lo, hi = _support(f, spec)
    scale = _amplitude_scale(f, lo, hi)
    fs = f if scale == 1.0 else f.scaled(1.0 / scale)
    k_lo = _K_EPS_FRACTION * spec.k_max
    tol = _piece_tol(spec)
    pieces = {}
    for channel in (Channel.LEFT, Channel.RIGHT):
        plist = _channel_pieces(model, channel, lo, hi, sign) if hi > lo else []
        for piece in plist:
            rule = _region_rule(f, fs, piece.region, spec)
            n0 = _seed_panels(spec.k_max - k_lo,
                              piece.region[1] - piece.region[0])

            def direct(k_arr, piece=piece, channel=channel, rule=rule):
                return _piece_direct(model, rule, piece, channel, sign, k_arr)

            piece.panels, piece.points, piece.max_err = _chebyshev_panels(
                direct, k_lo, spec.k_max, n0, tol, spec.max_subdivisions)
        pieces[channel] = plist
    amp = EnergyAmplitude(model, sign, spec, pieces, scale)
    _certify_cutoff(amp, _energy_tail(amp), f, spec, "k_max")
    memo[key] = amp
    return amp


def synthesize_energy(amp: EnergyAmplitude, x, spec: QuadratureSpec,
                      channels=(Channel.LEFT, Channel.RIGHT)):
    """Reconstruct position values from spectral amplitudes.

    Integrates sum over channels of eigenfunction times amplitude across the
    spectrum.  x may be a scalar or an array (handled as one batched
    integral); channels can be restricted to probe degeneracy.
    """
    model = amp.model
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    hbar, mass = model.hbar, model.mass

    def g(e):
        sol = _solve(model, e)
        total = np.zeros((e.size, x_arr.size), dtype=complex)
        for channel in channels:
            total += np.atleast_1d(amp.amplitude(e, channel))[:, None] * \
                _wave_grid(model, sol, channel, amp.sign, x_arr)
        return total

    hint = float(np.max(np.abs(x_arr))) + amp.osc_hint
    vals, errs, _ = integrate_energy_batch(g, spec, hbar=hbar, mass=mass,
                                           freq_hint=hint)
    if np.ndim(x) == 0:
        return complex(vals[0])
    return vals


def momentum_transform(f: TestFunction, direction: str = "analysis",
                       spec: QuadratureSpec | None = None):
    """Plane-wave analysis of f, or the inverse synthesis map.

    direction "analysis" returns a MomentumAmplitude; "synthesis" returns a
    callable that evaluates the inverse transform of f's analysis pointwise,
    which reproduces f up to quadrature tolerance.
    """
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
    hbar = model.hbar
    p_max = hbar * spec.k_max
    if hi <= lo:
        zero = _Panels(np.array([-p_max, p_max]),
                       np.zeros((1, _DEGREE + 1), dtype=complex))
        amp = MomentumAmplitude(model, spec, 0.0, zero, 0, 0.0)
        memo[spec] = amp
        return amp
    demod = 0.5 * (lo + hi)
    tol = _CACHE_TOL_FRACTION * spec.abs_tol
    fscale = _amplitude_scale(f, lo, hi)
    fs = f if fscale == 1.0 else f.scaled(1.0 / fscale)
    rule = _region_rule(f, fs, (lo, hi), spec)

    def direct(p_arr):
        return _momentum_direct(model, rule, demod, p_arr)

    panels, npts, worst = _chebyshev_panels(
        direct, -p_max, p_max, _seed_panels(2.0 * spec.k_max, hi - lo), tol,
        spec.max_subdivisions)
    amp = MomentumAmplitude(model, spec, demod, panels, npts, worst, fscale)
    edge = abs(amp.amplitude(p_max)) ** 2 + abs(amp.amplitude(-p_max)) ** 2
    _certify_cutoff(amp, _tail_mass(edge, p_max), f, spec, "p_max")
    memo[spec] = amp
    return amp


def synthesize_momentum(amp: MomentumAmplitude, x, spec: QuadratureSpec):
    """Inverse plane-wave transform at x (scalar or array)."""
    hbar = amp.hbar
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scale = 1.0 / math.sqrt(2.0 * math.pi * hbar)

    def g(p):
        return np.atleast_1d(amp.amplitude(p))[:, None] * np.exp(
            1j * np.outer(p, x_arr) / hbar) * scale

    hint = (float(np.max(np.abs(x_arr))) + abs(amp.demod)) / hbar
    vals, errs, _ = integrate_line_batch(g, spec, lo=-amp.p_max, hi=amp.p_max,
                                         freq_hint=hint)
    if np.ndim(x) == 0:
        return complex(vals[0])
    return vals


def _position_overlap(f: TestFunction, g: TestFunction, spec: QuadratureSpec,
                      weight_power: int = 0) -> complex:
    """Integral of conj(f) x^power g over the union of supports."""
    lo_f, hi_f = _support(f, spec)
    lo_g, hi_g = _support(g, spec)
    lo, hi = min(lo_f, lo_g), max(hi_f, hi_g)
    if hi <= lo:
        return 0j

    def integrand(x):
        w = x ** weight_power if weight_power else 1.0
        return np.conj(evaluate(f, x)) * evaluate(g, x) * w

    res = integrate_line(integrand, spec, lo=lo, hi=hi,
                         freq_hint=f.max_phase() + g.max_phase())
    return res.value


def _momentum_overlap(f: TestFunction, g: TestFunction, spec: QuadratureSpec,
                      weight_power: int = 0) -> complex:
    af = momentum_transform(f, "analysis", spec)
    ag = momentum_transform(g, "analysis", spec)

    def integrand(p):
        w = p ** weight_power if weight_power else 1.0
        return np.conj(np.atleast_1d(af.amplitude(p))) * \
            np.atleast_1d(ag.amplitude(p)) * w

    res = integrate_line(integrand, spec, lo=-af.p_max, hi=af.p_max,
                         freq_hint=af.osc_hint + ag.osc_hint)
    return res.value


def _energy_overlap(f: TestFunction, g: TestFunction, sign: SignLabel,
                    spec: QuadratureSpec, weight_power: int = 0) -> complex:
    af = energy_transform(f, sign, spec)
    ag = energy_transform(g, sign, spec)
    model = f.model

    def integrand(e):
        w = e ** weight_power if weight_power else 1.0
        total = np.zeros(np.shape(e), dtype=complex)
        for channel in (Channel.LEFT, Channel.RIGHT):
            total += np.conj(np.atleast_1d(af.amplitude(e, channel))) * \
                np.atleast_1d(ag.amplitude(e, channel))
        return total * w

    res = integrate_energy(integrand, spec, hbar=model.hbar, mass=model.mass,
                           freq_hint=af.osc_hint + ag.osc_hint)
    return res.value


def parseval_defect(f: TestFunction, g: TestFunction, basis: str,
                    spec: QuadratureSpec) -> float:
    """|(f, g) - overlap expanded in the chosen basis|.

    basis is one of "position", "momentum", "energy+", "energy-".  The
    position case integrates the same product over the union of the two
    supports, where inner_product takes their intersection, so it probes
    only the quadrature itself.
    """
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    direct = inner_product(f, g, spec)
    if basis == "position":
        expanded = _position_overlap(f, g, spec)
    elif basis == "momentum":
        expanded = _momentum_overlap(f, g, spec)
    elif basis == "energy+":
        expanded = _energy_overlap(f, g, SignLabel.PLUS, spec)
    elif basis == "energy-":
        expanded = _energy_overlap(f, g, SignLabel.MINUS, spec)
    else:
        raise DomainError(f"unknown expansion basis {basis!r}")
    return float(abs(direct - expanded))


def _spectral_moment(observable: Observable, f: TestFunction, g: TestFunction,
                     spec: QuadratureSpec, power: int) -> complex:
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    if observable is Observable.Q:
        return _position_overlap(f, g, spec, weight_power=power)
    if observable is Observable.P:
        return _momentum_overlap(f, g, spec, weight_power=power)
    if observable is Observable.H:
        return _energy_overlap(f, g, SignLabel.PLUS, spec, weight_power=power)
    raise DomainError(f"unknown observable {observable!r}")


def spectral_matrix_element(observable: Observable, f: TestFunction,
                            g: TestFunction, spec: QuadratureSpec) -> complex:
    """(f, A g) computed on the spectral side of the expansion.

    Q weighs the position overlap by x, P weighs the plane-wave overlap by
    p, H weighs the channel-summed energy overlap by E.  The direct route
    through apply_observable must agree within tolerance; tests hold the two
    against each other.
    """
    return _spectral_moment(observable, f, g, spec, power=1)


def expectation_uncertainty(observable: Observable, f: TestFunction,
                            spec: QuadratureSpec) -> tuple[float, float]:
    """Mean and spread of the observable in the normalized state f."""
    n2 = inner_product(f, f, spec).real
    if not n2 > 0.0:
        raise DomainError("expectation values need a nonzero test function")
    mean = _spectral_moment(observable, f, f, spec, power=1).real / n2
    second = _spectral_moment(observable, f, f, spec, power=2).real / n2
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
    per_channel = {}
    for channel in (Channel.LEFT, Channel.RIGHT):

        def integrand(e, channel=channel):
            return np.abs(np.atleast_1d(amp.amplitude(e, channel))) ** 2 + 0j

        if hi_eff > e_lo:
            res = integrate_energy(integrand, spec, hbar=model.hbar,
                                   mass=model.mass, e_lo=e_lo, e_hi=hi_eff,
                                   freq_hint=2.0 * amp.osc_hint)
            per_channel[channel] = res.value.real
        else:
            per_channel[channel] = 0.0
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
