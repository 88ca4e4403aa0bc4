"""Smooth test functions that vanish at the barrier steps, with exact calculus.

Functions are finite sums of primitive terms

    coeff * p(x) * prod (x-c)^(-j) * e^{iqx} * e^{-((x-g)/w)^2}
          * prod e^{-s^2/(x-c)^2} * [restriction],

where the window factors e^{-s^2/(x-c)^2} pin the function and every one of
its derivatives to zero at the step positions, the poles only ever sit under
a window at the same point, and the optional restriction clips the term to a
closed interval (used for the potential part of H).  This family is closed
under d/dx, multiplication by x, and multiplication by the potential, so Q,
P and H act exactly: no numerical differentiation happens anywhere.

Derivatives use the product rule; terms are then re-merged by their full
signature, pole powers included.  Pole factors are never expanded into the
numerator polynomial: a common-denominator form would need the numerator to
cancel against the divided-out poles wherever the poles blow up, which costs
all significant digits by derivative order three.  Keeping the poles in the
signature bounds every polynomial degree by the derivative order, at the
price of a term count that grows like the square of the order; evaluation
handles that by processing each signature group as one matrix operation.
Exponentially large and small factors are assembled in log space, so
window-times-pole products near the steps neither overflow nor produce
0 * inf.  Polynomials are stored in the shifted variable u = x - center of
the Gaussian envelope, where they stay well conditioned over the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import CapabilityError, DomainError
from .model import BarrierModel, Observable
from .quadrature import QuadratureSpec, integrate_line

__all__ = [
    "Term",
    "TestFunction",
    "GaussianPacket",
    "build_test_function",
    "evaluate",
    "apply_observable",
    "seminorm",
    "inner_product",
    "lincomb",
    "slow_decay_example",
]

DEFAULT_ORDER_CAP = 16
DEFAULT_NODE_BUDGET = 1_000_000
# Window sharpness as a fraction of the barrier width.
WINDOW_SHARPNESS_FRACTION = 0.1
# Relative magnitude below which a term is considered absent from an interval
# when computing certified support bounds.
_SUPPORT_CUTOFF_LOG = 41.5  # -ln(1e-18)
# x-chunk length for grouped evaluation, keeps term-by-point matrices small.
_EVAL_CHUNK = 2048


@dataclass(frozen=True)
class Term:
    """One primitive product term.  Immutable; see the module docstring."""

    coeff: complex
    poly: tuple          # ascending coefficients in u = x - ref, complex
    rpoles: tuple        # ((position, power), ...) with positions under windows
    cpoles: tuple        # ((complex position, power), ...), no window needed
    phase: float         # q in e^{iqx}
    gauss: tuple | None  # (center, width) of e^{-((x-center)/width)^2}
    windows: tuple       # ((position, sharpness), ...)
    region: tuple | None  # (lo, hi) restriction, None for the whole line


def _ref(t: Term) -> float:
    return t.gauss[0] if t.gauss is not None else 0.0


def _intersect_region(r1, r2):
    if r1 is None:
        return r2
    if r2 is None:
        return r1
    return (max(r1[0], r2[0]), min(r1[1], r2[1]))


def _cp_key(cp):
    return tuple(((z.real, z.imag), j) for z, j in cp)


def _term_sort_key(t: Term):
    return (
        () if t.region is None else t.region,
        t.phase,
        () if t.gauss is None else t.gauss,
        t.windows,
        t.rpoles,
        _cp_key(t.cpoles),
    )


def _merge(terms) -> tuple:
    """Sum polynomials of terms sharing a full signature."""
    groups: dict = {}
    for t in terms:
        key = (t.phase, t.gauss, t.windows, t.region, t.rpoles, _cp_key(t.cpoles))
        entry = groups.get(key)
        num = np.asarray(t.poly, dtype=complex) * t.coeff
        if entry is None:
            groups[key] = [num, t]
        else:
            entry[0] = npoly.polyadd(entry[0], num)
    out = []
    for num, proto in groups.values():
        num = npoly.polytrim(num, tol=0.0)
        scale = float(np.max(np.abs(num)))
        if scale == 0.0:
            continue
        out.append(replace(proto, coeff=complex(scale),
                           poly=tuple(complex(c) for c in num / scale)))
    out.sort(key=_term_sort_key)
    return tuple(out)


def _diff_terms(terms) -> tuple:
    """Product-rule derivative of a term list, re-merged."""
    out = []
    for t in terms:
        if len(t.poly) > 1:
            dp = npoly.polyder(np.asarray(t.poly, dtype=complex))
            out.append(replace(t, poly=tuple(complex(c) for c in dp)))
        for i, (pos, j) in enumerate(t.rpoles):
            rp = list(t.rpoles)
            rp[i] = (pos, j + 1)
            out.append(replace(t, coeff=t.coeff * (-j), rpoles=tuple(rp)))
        for i, (z, j) in enumerate(t.cpoles):
            cp = list(t.cpoles)
            cp[i] = (z, j + 1)
            out.append(replace(t, coeff=t.coeff * (-j), cpoles=tuple(cp)))
        if t.phase != 0.0:
            out.append(replace(t, coeff=t.coeff * 1j * t.phase))
        if t.gauss is not None:
            g, w = t.gauss
            # -2 (x - g) / w^2 in u = x - ref; ref = g makes it -2 u / w^2.
            dp = npoly.polymul(np.asarray(t.poly, dtype=complex),
                               np.array([2.0 * (g - _ref(t)) / w**2, -2.0 / w**2]))
            out.append(replace(t, poly=tuple(complex(c) for c in dp)))
        for pos, s in t.windows:
            rp = dict(t.rpoles)
            rp[pos] = rp.get(pos, 0) + 3
            out.append(replace(t, coeff=t.coeff * 2.0 * s * s,
                               rpoles=tuple(sorted(rp.items()))))
    return _merge(out)


def _group_eval(group: list, x: np.ndarray) -> np.ndarray:
    """Evaluate all terms of one signature group on an x-chunk.

    All terms share (phase, gauss, windows, region) and the set of pole
    positions; powers vary per term.  Magnitudes live in a log-space matrix,
    complex direction in an angle matrix, so nothing overflows near a pole
    and nothing multiplies 0 by inf.
    """
    proto = group[0]
    positions = sorted({pos for t in group for pos, _ in t.rpoles})
    zpositions = sorted({z for t in group for z, _ in t.cpoles},
                        key=lambda z: (z.real, z.imag))
    n = x.size
    dead = np.zeros(n, dtype=bool)
    shared = np.zeros(n)
    for pos, s in proto.windows:
        dx = x - pos
        hit = dx == 0.0
        dead |= hit
        safe = np.where(hit, 1.0, dx)
        shared -= (s * s) / (safe * safe)
    if proto.gauss is not None:
        g, w = proto.gauss
        shared -= ((x - g) / w) ** 2
    logs = []
    angles = []
    for pos in positions:
        dx = x - pos
        hit = dx == 0.0
        dead |= hit
        logs.append(np.log(np.where(hit, 1.0, np.abs(dx))))
        angles.append(np.where(dx < 0.0, math.pi, 0.0))
    for z in zpositions:
        dz = x - z
        logs.append(np.log(np.abs(dz)))
        angles.append(np.angle(dz))
    nt = len(group)
    degs = [len(t.poly) for t in group]
    d = max(degs)
    coeffs = np.zeros((nt, d), dtype=complex)
    powers = np.zeros((nt, len(logs)))
    logmag = np.empty(nt)
    ang0 = np.empty(nt)
    for i, t in enumerate(group):
        coeffs[i, : degs[i]] = t.poly
        rp = dict(t.rpoles)
        cp = dict(t.cpoles)
        for p_i, pos in enumerate(positions):
            powers[i, p_i] = rp.get(pos, 0)
        for z_i, z in enumerate(zpositions):
            powers[i, len(positions) + z_i] = cp.get(z, 0)
        logmag[i] = math.log(abs(t.coeff))
        ang0[i] = np.angle(t.coeff)
    if logs:
        lmat = np.stack(logs)
        amat = np.stack(angles)
        expo = shared[None, :] - powers @ lmat
        ang = -(powers @ amat)
    else:
        expo = np.broadcast_to(shared, (nt, n)).copy()
        ang = np.zeros((nt, n))
    expo += logmag[:, None]
    ang += ang0[:, None]
    if proto.phase != 0.0:
        ang += proto.phase * x[None, :]
    u = x - _ref(proto)
    vals = np.broadcast_to(coeffs[:, -1][:, None], (nt, n)).copy()
    for ci in range(d - 2, -1, -1):
        vals *= u[None, :]
        vals += coeffs[:, ci][:, None]
    out = (vals * np.exp(expo + 1j * ang)).sum(axis=0)
    out = np.where(dead, 0.0, out)
    if proto.region is not None:
        lo, hi = proto.region
        out = np.where((x >= lo) & (x <= hi), out, 0.0)
    return out


def _eval_terms(terms, x: np.ndarray) -> np.ndarray:
    groups: dict = {}
    for t in terms:
        if t.coeff == 0.0:
            continue
        key = (t.phase, t.gauss, t.windows, t.region,
               tuple(pos for pos, _ in t.rpoles),
               tuple((z.real, z.imag) for z, _ in t.cpoles))
        groups.setdefault(key, []).append(t)
    total = np.zeros(x.shape, dtype=complex)
    for lo in range(0, x.size, _EVAL_CHUNK):
        sl = slice(lo, min(lo + _EVAL_CHUNK, x.size))
        for group in groups.values():
            total[sl] += _group_eval(group, x[sl])
    return total


def _node_count(terms) -> int:
    n = 0
    for t in terms:
        n += len(t.poly) + len(t.windows) + 2
        n += sum(j for _, j in t.rpoles) + sum(j for _, j in t.cpoles)
    return n


class TestFunction:
    """An element of the test-function algebra over one barrier model.

    Treat instances as immutable.  Derivatives and the images under Q, P
    and H are cached as chains, so repeated evaluation at increasing order,
    and seminorms whose operator words share a prefix, repeat no symbolic
    work.
    """

    __slots__ = ("model", "terms", "order_cap", "node_budget", "_deriv",
                 "_images", "__weakref__")

    def __init__(self, model: BarrierModel, terms, order_cap: int = DEFAULT_ORDER_CAP,
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.model = model
        self.terms = tuple(terms)
        self.order_cap = order_cap
        self.node_budget = node_budget
        self._deriv = None
        self._images = {}
        count = _node_count(self.terms)
        if count > node_budget:
            raise CapabilityError(
                f"expression has {count} nodes, budget is {node_budget}")

    @classmethod
    def zero(cls, model: BarrierModel) -> "TestFunction":
        return cls(model, ())

    def derivative(self) -> "TestFunction":
        if self._deriv is None:
            self._deriv = TestFunction(self.model, _diff_terms(self.terms),
                                       self.order_cap, self.node_budget)
        return self._deriv

    def scaled(self, factor: complex) -> "TestFunction":
        terms = tuple(replace(t, coeff=t.coeff * factor) for t in self.terms)
        return TestFunction(self.model, terms, self.order_cap, self.node_budget)

    def max_phase(self) -> float:
        return max((abs(t.phase) for t in self.terms), default=0.0)

    def support_interval(self, radius: float) -> tuple[float, float] | None:
        """Interval certified to contain all of |f| above 1e-18 relative.

        None means no bound better than the full line is available (terms
        without a Gaussian envelope).  The bound accounts for polynomial
        growth up to |x| = radius and for the worst windowed-pole
        amplification, so it stays valid for high derivatives.
        """
        lo = math.inf
        hi = -math.inf
        for t in self.terms:
            if t.gauss is None:
                return None
            g, w = t.gauss
            deg = len(t.poly) - 1
            margin = _SUPPORT_CUTOFF_LOG + math.log(deg + 1.0)
            margin += deg * math.log(2.0 + radius + abs(g))
            if t.coeff:
                margin += max(0.0, math.log(abs(t.coeff)))
            window_s = dict(t.windows)
            for pos, j in t.rpoles:
                s = window_s.get(pos)
                if s is None:
                    return None
                # max over x of |x-pos|^-j e^{-s^2/(x-pos)^2}
                margin += 0.5 * j * math.log1p(j / (2.0 * math.e * s * s))
            delta = w * math.sqrt(margin)
            lo = min(lo, g - delta)
            hi = max(hi, g + delta)
        if lo > hi:
            return (0.0, 0.0)
        return (lo, hi)

    def __call__(self, x, n: int = 0):
        return evaluate(self, x, n)


def evaluate(f: TestFunction, x, n: int = 0):
    """Evaluate the n-th derivative of f at x (scalar or array), exactly.

    The derivative is symbolic; n beyond the order cap raises
    CapabilityError.  At a window position the value is zero by rule, not by
    cancellation, so it is exact at every derivative order.
    """
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if n > f.order_cap:
        raise CapabilityError(f"derivative order {n} exceeds cap {f.order_cap}")
    g = f
    for _ in range(n):
        g = g.derivative()
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    total = _eval_terms(g.terms, x_arr)
    if np.ndim(x) == 0:
        return complex(total[0])
    return total


def apply_observable(observable: Observable, f: TestFunction) -> TestFunction:
    """Apply Q (multiply by x), P (-i hbar d/dx) or H to a test function."""
    image = f._images.get(observable)
    if image is None:
        image = f._images[observable] = _apply(observable, f)
    return image


def _apply(observable: Observable, f: TestFunction) -> TestFunction:
    model = f.model
    if observable is Observable.Q:
        terms = tuple(
            replace(t, poly=tuple(complex(c) for c in npoly.polymul(
                np.asarray(t.poly, dtype=complex), np.array([_ref(t), 1.0]))))
            for t in f.terms)
        return TestFunction(model, terms, f.order_cap, f.node_budget)
    if observable is Observable.P:
        return f.derivative().scaled(-1j * model.hbar)
    if observable is Observable.H:
        d2 = f.derivative().derivative()
        factor = -model.hbar**2 / (2.0 * model.mass)
        parts = [replace(t, coeff=t.coeff * factor) for t in d2.terms]
        if model.v0 != 0.0:
            clip = (model.a, model.b)
            for t in f.terms:
                parts.append(replace(t, coeff=t.coeff * model.v0,
                                     region=_intersect_region(t.region, clip)))
        return TestFunction(model, _merge(parts), f.order_cap, f.node_budget)
    raise DomainError(f"unknown observable {observable!r}")


@dataclass(frozen=True)
class GaussianPacket:
    """Descriptor of one packet: (x-center)^poly_degree * e^{i p0 x / hbar}
    * e^{-((x-center)/width)^2}, windowed at both steps."""

    center: float
    width: float
    momentum: float = 0.0
    poly_degree: int = 0

    def to_dict(self) -> dict:
        return {"kind": "gaussian_packet", "center": self.center, "width": self.width,
                "momentum": self.momentum, "poly_degree": self.poly_degree}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianPacket":
        if data.get("kind") != "gaussian_packet":
            raise DomainError(f"unknown test-function kind {data.get('kind')!r}")
        unknown = set(data) - {"kind", "center", "width", "momentum", "poly_degree"}
        if unknown:
            raise DomainError(f"unknown packet keys: {sorted(unknown)}")
        return cls(center=data["center"], width=data["width"],
                   momentum=data.get("momentum", 0.0),
                   poly_degree=data.get("poly_degree", 0))


def build_test_function(model: BarrierModel, packet: GaussianPacket,
                        order_cap: int = DEFAULT_ORDER_CAP) -> TestFunction:
    """Construct a windowed Gaussian packet as a TestFunction."""
    if not (packet.width > 0.0 and math.isfinite(packet.width)):
        raise DomainError(f"packet width must be positive, got {packet.width}")
    if packet.poly_degree < 0:
        raise DomainError("poly_degree must be >= 0")
    s = WINDOW_SHARPNESS_FRACTION * model.width
    # (x - center)^degree is u^degree in the term's shifted variable.
    poly = (0j,) * packet.poly_degree + (1.0 + 0j,)
    term = Term(coeff=1.0 + 0j,
                poly=poly,
                rpoles=(), cpoles=(),
                phase=packet.momentum / model.hbar,
                gauss=(packet.center, packet.width),
                windows=((model.a, s), (model.b, s)),
                region=None)
    return TestFunction(model, (term,), order_cap=order_cap)


def slow_decay_example(model: BarrierModel) -> TestFunction:
    """g(x) = 1/(x + i): square-integrable, but x g(x) is not.

    Not a member of the test-function space; exists so membership probes
    have something to reject.
    """
    term = Term(coeff=1.0 + 0j, poly=(1.0 + 0j,), rpoles=(),
                cpoles=((-1j, 1),), phase=0.0, gauss=None, windows=(),
                region=None)
    return TestFunction(model, (term,))


def lincomb(alpha: complex, f: TestFunction, beta: complex, g: TestFunction) -> TestFunction:
    """alpha * f + beta * g over a shared model."""
    if f.model != g.model:
        raise DomainError("cannot combine functions over different models")
    terms = [replace(t, coeff=t.coeff * alpha) for t in f.terms]
    terms += [replace(t, coeff=t.coeff * beta) for t in g.terms]
    return TestFunction(f.model, _merge(terms),
                        min(f.order_cap, g.order_cap),
                        max(f.node_budget, g.node_budget))


def _clip_interval(bounds, radius):
    if bounds is None:
        return -radius, radius
    return max(bounds[0], -radius), min(bounds[1], radius)


def inner_product(f: TestFunction, g: TestFunction, spec: QuadratureSpec) -> complex:
    """L2 inner product (f, g), antilinear in f."""
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    fb = f.support_interval(spec.spatial_radius)
    gb = g.support_interval(spec.spatial_radius)
    lo_f, hi_f = _clip_interval(fb, spec.spatial_radius)
    lo_g, hi_g = _clip_interval(gb, spec.spatial_radius)
    lo, hi = max(lo_f, lo_g), min(hi_f, hi_g)
    if hi <= lo:
        return 0j
    hint = f.max_phase() + g.max_phase()
    res = integrate_line(lambda x: np.conj(evaluate(f, x)) * evaluate(g, x),
                         spec, lo=lo, hi=hi, freq_hint=hint)
    return res.value


def seminorm(f: TestFunction, n: int, m: int, l: int, spec: QuadratureSpec) -> float:
    """The norm of P^n Q^m H^l f (H applied first, then Q, then P)."""
    for v, name in ((n, "n"), (m, "m"), (l, "l")):
        if v < 0:
            raise DomainError(f"seminorm index {name} must be >= 0")
    if n + m + 2 * l > f.order_cap:
        raise CapabilityError(
            f"seminorm order n+m+2l = {n + m + 2 * l} exceeds cap {f.order_cap}")
    g = f
    for _ in range(l):
        g = apply_observable(Observable.H, g)
    for _ in range(m):
        g = apply_observable(Observable.Q, g)
    for _ in range(n):
        g = apply_observable(Observable.P, g)
    val = inner_product(g, g, spec)
    return math.sqrt(max(val.real, 0.0))
