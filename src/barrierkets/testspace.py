"""Smooth test functions that vanish at the barrier steps, with exact calculus.

A function is a short sum of terms.  Each term is a coefficient times a
word in the letters Q, P, H and D (d/dx), spelled with the letter that acts
last first, applied to one windowed packet

    f(x) = u^d E(x),  E(x) = e^{iqx} e^{-(u/w)^2} e^{-s^2/(x-a)^2} e^{-s^2/(x-b)^2},

u = x - g.  a and b are the step positions and s the window sharpness, all
taken from the model; g, w, q and d come from the GaussianPacket.  The
windows pin the packet and every one of its derivatives to zero at the
steps.  Q, P and H act by prepending their letter to the word of every
term; sums concatenate terms and scalings scale their coefficients.  Terms
keep their order, so a fixed input gives the same bits every time.

V is constant on each of the three regions cut by the steps, and a packet
vanishes with every derivative at the steps, so on a region a word of
order K (Q, P and D count one, H two) is a differential operator with
polynomial coefficients and no boundary terms: W f = sum over r, s <= K of
c[r, s] x^r f^(s), the exact c composed once per model and word, one letter
at a time.  Every value, of a function or of its n-th derivative (the word
D^n W), contracts those coefficients, summed over the terms that share a
packet, with the packet's derivative jet f, f', ..., f^(K), and sums the
powers of x by Horner's rule.

The jet comes from Taylor-mode arithmetic (Griewank and Walther, Evaluating
Derivatives, 2nd ed., SIAM 2008, ch. 13).  At a node the exponent of E has
closed-form Taylor coefficients psi_j, the coefficients of its exponential
follow from k E_k = sum over j of j psi_j E_{k-j}, and u^d enters as a
Cauchy product.  Neither the jet nor the contraction calls BLAS, so the
bits do not depend on the thread count.

The norms ||W f|| of the words W in Q, P and H that define the space (the
seminorms ||P^n Q^m H^l f|| and the invariance battery's words) integrate
|W f|^2 over an interval and starting panels that depend only on f, the
spatial radius and K.  So every word of one order starts on the same
nodes, where f keeps each packet's jet: the 94 seminorms of order 1 to 8
that define membership compute one jet per packet and order there, and
after them the battery's 48 words of order 1 to 4 compute none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError, finite_float
from .model import BarrierModel, Observable
from .quadrature import _PARTS_X, QuadratureSpec, _adaptive, _eval_panels, \
    _run
from .scattering import _cis

__all__ = [
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

# Highest derivative order (n + m + 2l for seminorms) the calculus serves.
ORDER_CAP = 16
# Window sharpness as a fraction of the barrier width.
WINDOW_SHARPNESS_FRACTION = 0.1
# Relative magnitude below which a function is considered absent from an
# interval when computing certified support bounds.
_SUPPORT_CUTOFF_LOG = 41.5  # -ln(1e-18)
# A factor e^-z of E with z above this is 0 in floating point: e^-745.2 is
# below half the least subnormal double.
_UNDERFLOW = 745.2


class _Term(NamedTuple):
    """coef times a word in Q, P, H and D applied to one packet."""

    coef: complex
    word: str                  # the letter that acts last first
    packet: "GaussianPacket"


def _order(word: str) -> int:
    """The order of a word: H counts two, every other letter one."""
    return len(word) + word.count("H")


class TestFunction:
    """An element of the test-function algebra over one barrier model.

    `terms` is a tuple of _Term (coefficient, word, packet); see the module
    docstring.  Treat instances as immutable.  Kept per function: the
    support bounds per radius and order; the self inner product (f, f) per
    QuadratureSpec, so a norm asked for again integrates nothing; and, per
    seminorm order, each packet's jet on that order's starting panels (see
    _word_norm).
    """

    __slots__ = ("model", "terms", "_supports", "_self_products", "_jets",
                 "__weakref__")
    order_cap = ORDER_CAP

    def __init__(self, model: BarrierModel, terms):
        self.model = model
        self.terms = tuple(t for t in terms if t.coef != 0)
        self._supports = {}
        self._self_products = {}
        self._jets = {}

    def scaled(self, factor: complex) -> "TestFunction":
        return TestFunction(self.model, (t._replace(coef=t.coef * factor)
                                         for t in self.terms))

    def max_phase(self) -> float:
        return max((abs(t.packet.momentum / self.model.hbar)
                    for t in self.terms), default=0.0)

    def support_interval(self, radius: float) -> tuple[float, float]:
        """Interval certified to contain all of |f| above 1e-18 relative,
        for |x| <= radius (see _reach)."""
        lo, hi = self._support_bound(radius, 0)
        return (lo, hi) if lo <= hi else (0.0, 0.0)

    def _support_bound(self, radius: float, order: int) -> tuple:
        """The union over terms of the interval outside which every word
        of the given order applied to the term is below the cutoff, for
        |x| <= radius.  An empty bound is (inf, -inf)."""
        interval = self._supports.get((radius, order))
        if interval is None:
            lo, hi = math.inf, -math.inf
            for t in self.terms:
                k = order + _order(t.word)
                log_coef = max(0.0, math.log(abs(t.coef))) + \
                    _log_coef_bound(self.model, k)
                reach = _reach(self.model, t.packet, radius, k, log_coef)
                lo = min(lo, t.packet.center - reach)
                hi = max(hi, t.packet.center + reach)
            interval = self._supports[(radius, order)] = (lo, hi)
        return interval

    def _values(self, x: np.ndarray, n: int) -> np.ndarray:
        return _word_values(self, _groups(self, "D" * n), x, {})

    def __call__(self, x, n: int = 0):
        return evaluate(self, x, n)


def _jet(model: BarrierModel, packet: "GaussianPacket", x: np.ndarray,
         order: int) -> np.ndarray:
    """f, f', ..., f^(order) of one packet on x, an (order + 1, x.size)
    array, by Taylor-mode arithmetic (see the module docstring).

    At x + t the exponent of E has the Taylor coefficients
    psi_0 = iqx - (u/w)^2 - s^2/(x-a)^2 - s^2/(x-b)^2, psi_1 = iq - 2u/w^2
    + 2s^2/(x-a)^3 + 2s^2/(x-b)^3, and for j >= 2 -(j+1)(-1)^j s^2 over
    (x-a)^(j+2) and (x-b)^(j+2), with -1/w^2 added at j = 2.

    A node at which one factor of E underflows on its own, (u/w)^2,
    s^2/(x-a)^2 or s^2/(x-b)^2 above _UNDERFLOW, is set to 0 before the
    recurrence runs.  There E is 0 in floating point, so the recurrence
    gives 0 wherever it stays finite, and next to a step, where its pole
    terms overflow, |d^k/dx^k e^{-s^2/(x-a)^2}| < 1.1e-250 s^-k for every
    k <= 16.  That covers the steps themselves and nodes beyond any
    float's reach of the Gaussian.
    """
    g, w, d = packet.center, packet.width, packet.poly_degree
    q = packet.momentum / model.hbar
    s = WINDOW_SHARPNESS_FRACTION * model.width
    a, b = model.a, model.b
    reach, edge = w * math.sqrt(_UNDERFLOW), s / math.sqrt(_UNDERFLOW)
    live = None
    if x.size:
        # x - g is monotone in x, so the extremes decide whether any node
        # can be dead.
        lo, hi = x.min(), x.max()
        if max(hi - g, g - lo) >= reach or not (
                hi < a - edge or lo > b + edge
                or a + edge < lo and hi < b - edge):
            live = ((np.abs(x - g) < reach) & (np.abs(x - a) > edge)
                    & (np.abs(x - b) > edge))
            x = x[live]
    u = x - g
    ia, ib = 1.0 / (x - a), 1.0 / (x - b)
    pa, pb = -s * s * ia * ia, -s * s * ib * ib
    uw = u / w
    mag = np.exp(pa + pb - uw * uw)
    powers = [u ** p for p in range(d + 1)]
    if d and not order:
        mag *= powers[d]
    e = np.empty((order + 1, x.size), dtype=complex)
    e[0] = mag
    if q:
        e[0] *= _cis(q * x)
    if order:
        # jpsi[j - 1] = j psi_j, the weights of the recurrence.
        jpsi = np.empty((order, x.size), dtype=complex)
        for j in range(1, order + 1):
            pa *= -ia
            pb *= -ib
            jpsi[j - 1] = j * (j + 1) * (pa + pb)
        jpsi[0] += 1j * q - 2.0 * uw / w
        if order >= 2:
            jpsi[1] -= 2.0 / (w * w)
        for k in range(1, order + 1):
            e[k] = np.einsum("jn,jn->n", jpsi[:k], e[k - 1::-1]) / k
        if d:
            # (u + t)^d e(t), a Cauchy product, formed in place from the
            # top order down.
            for k in range(order, -1, -1):
                e[k] *= powers[d]
                for i in range(1, min(d, k) + 1):
                    e[k] += (math.comb(d, i) * powers[d - i]) * e[k - i]
        e *= np.cumprod(np.arange(order + 1.0).clip(1.0))[:, None]
    if live is None:
        return e
    out = np.zeros((order + 1, live.size), dtype=complex)
    out[:, live] = e
    return out


def _logsum(logs) -> float:
    """log of the sum of exp(logs)."""
    return float(np.logaddexp.reduce(logs))


def _log_leibniz(log_f: np.ndarray, log_g: np.ndarray, m: int) -> float:
    """log of sum over i <= m of C(m, i) F_i G_{m-i}, from log F and
    log G: the Leibniz bound on the m-th derivative of a product."""
    binom = np.log([math.comb(m, i) for i in range(m + 1)])
    return _logsum(binom + log_f[:m + 1] + log_g[m::-1])


@lru_cache(maxsize=64)
def _log_window_bounds(s: float, order: int) -> np.ndarray:
    """log M_m, m <= order: bounds over the whole line on the m-th
    derivative of e^{-s^2/(x-a)^2} e^{-s^2/(x-b)^2}.

    With t = 1/(x - a), d^j/dx^j e^{-s^2 t^2} = R_j(t) e^{-s^2 t^2} where
    R_0 = 1 and R_{j+1}(t) = -t^2 R_j'(t) + 2 s^2 t^3 R_j(t).  |t|^k
    e^{-s^2 t^2} is at most (1 + k / (2e s^2))^(k/2), so A_j = sum over k
    of |R_j,k| times that bounds one window's j-th derivative, and the
    Leibniz rule combines the two windows' bounds into M_m.
    """
    power = np.arange(3 * order + 1)
    log_pole = 0.5 * power * np.log1p(power / (2.0 * math.e * s * s))
    r = np.zeros(power.size)
    r[0] = 1.0
    log_a = np.empty(order + 1)
    for j in range(order + 1):
        nz = r != 0.0
        log_a[j] = _logsum(np.log(np.abs(r[nz])) + log_pole[nz])
        nxt = np.zeros(r.size)
        nxt[1:] -= (power * r)[:-1]
        nxt[3:] += 2.0 * s * s * r[:-3]
        r = nxt
    return np.array([_log_leibniz(log_a, log_a, m) for m in range(order + 1)])


def _reach(model: BarrierModel, packet: "GaussianPacket", radius: float,
           order: int, log_coef: float) -> float:
    """Distance from the packet's centre beyond which, for |x| <= radius,
    every sum of c[r, s] x^r f^(s) with r, s <= order and log of the sum of
    |c| at most log_coef is below e^-41.5.

    |f^(s)| <= e^{-(u/w)^2} sum over i of C(s, i) B_i M_{s-i}: the i-th
    derivative of u^d e^{iqx} e^{-(u/w)^2} is Q_i(u) e^{iqx} e^{-(u/w)^2},
    Q_0 = u^d and Q_{i+1} = Q_i' + (iq - 2u/w^2) Q_i, so B_i = sum over p
    of |Q_i,p| (2 + radius + |g|)^p bounds |Q_i|; M_m bounds the windows
    (see _log_window_bounds).
    """
    w, d = packet.width, packet.poly_degree
    q = packet.momentum / model.hbar
    growth = math.log(2.0 + radius + abs(packet.center))
    poly = np.zeros(d + order + 2, dtype=complex)
    poly[d] = 1.0
    power = np.arange(poly.size)
    log_b = np.empty(order + 1)
    for i in range(order + 1):
        nz = poly != 0.0
        log_b[i] = _logsum(np.log(np.abs(poly[nz])) + power[nz] * growth)
        nxt = 1j * q * poly
        nxt[:-1] += (power * poly)[1:]
        nxt[1:] -= (2.0 / (w * w)) * poly[:-1]
        poly = nxt
    log_m = _log_window_bounds(WINDOW_SHARPNESS_FRACTION * model.width, order)
    worst = max(_log_leibniz(log_b, log_m, k) for k in range(order + 1))
    return w * math.sqrt(_SUPPORT_CUTOFF_LOG + order * growth + log_coef
                         + max(worst, 0.0))


class _SlowDecay:
    """g(x) = 1/(x + i), outside the algebra: it has no packet terms."""

    terms = ()

    def __init__(self, model: BarrierModel):
        self.model = model

    def _values(self, x: np.ndarray, n: int) -> np.ndarray:
        # d^n/dx^n (x + i)^-1 = (-1)^n n! (x + i)^-(n+1)
        return (-1) ** n * math.factorial(n) / (x + 1j) ** (n + 1)


def evaluate(f: TestFunction, x, n: int = 0):
    """Evaluate the n-th derivative of f at x (scalar or array), exactly.

    The derivative is the word D^n over f's terms; n beyond the order cap
    raises CapabilityError.  At the steps, and wherever a factor of a
    packet's envelope underflows, the value is zero by rule, not by
    cancellation, so it is exact at every derivative order.
    """
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if n > ORDER_CAP:
        raise CapabilityError(f"derivative order {n} exceeds cap {ORDER_CAP}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    total = f._values(x_arr.ravel(), n).reshape(x_arr.shape)
    if np.ndim(x) == 0:
        return complex(total[0])
    return total


def _member(f, name: str) -> None:
    """Refuse, with a typed error, a function outside the algebra."""
    if not isinstance(f, TestFunction):
        raise DomainError(
            f"{name} needs a member of the test-function space, got "
            f"{type(f).__name__}; only evaluate accepts functions outside it")


def apply_observable(observable: Observable, f: TestFunction) -> TestFunction:
    """Apply Q (multiply by x), P (-i hbar d/dx) or H to a test function."""
    _member(f, "apply_observable")
    if not isinstance(observable, Observable):
        raise DomainError(f"unknown observable {observable!r}")
    return TestFunction(f.model, (t._replace(word=observable.value + t.word)
                                  for t in f.terms))


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
        missing = {"center", "width"} - set(data)
        if missing:
            raise DomainError(f"missing packet keys: {sorted(missing)}")
        return cls(center=data["center"], width=data["width"],
                   momentum=data.get("momentum", 0.0),
                   poly_degree=data.get("poly_degree", 0))


def build_test_function(model: BarrierModel, packet: GaussianPacket) -> TestFunction:
    """Construct a windowed Gaussian packet as a TestFunction."""
    center, width, momentum = (finite_float(f"packet {name}",
                                            getattr(packet, name))
                               for name in ("center", "width", "momentum"))
    if not width > 0.0:
        raise DomainError(f"packet width must be positive, got {packet.width}")
    degree = packet.poly_degree
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) \
            or degree < 0:
        raise DomainError(f"poly_degree must be an integer >= 0, got {degree!r}")
    return TestFunction(model, (_Term(1.0, "", GaussianPacket(
        center, width, momentum, int(degree))),))


def slow_decay_example(model: BarrierModel) -> _SlowDecay:
    """g(x) = 1/(x + i): square-integrable, but x g(x) is not.

    Not a member of the test-function space; exists so membership probes
    have something to reject.  Only `evaluate` accepts it.
    """
    return _SlowDecay(model)


def lincomb(alpha: complex, f: TestFunction, beta: complex, g: TestFunction) -> TestFunction:
    """alpha * f + beta * g over a shared model."""
    _member(f, "lincomb")
    _member(g, "lincomb")
    if f.model != g.model:
        raise DomainError("cannot combine functions over different models")
    return TestFunction(f.model, f.scaled(alpha).terms + g.scaled(beta).terms)


def _support(f: TestFunction, spec: QuadratureSpec) -> tuple[float, float]:
    """f's support interval clipped to the spatial radius of spec."""
    lo, hi = f.support_interval(spec.spatial_radius)
    return max(lo, -spec.spatial_radius), min(hi, spec.spatial_radius)


def _product(f: TestFunction, g: TestFunction, x: np.ndarray) -> np.ndarray:
    """conj(f) * g on x; f is sampled once when g is f."""
    v = evaluate(f, x)
    return np.conj(v) * (v if g is f else evaluate(g, x))


def inner_product(f: TestFunction, g: TestFunction, spec: QuadratureSpec) -> complex:
    """L2 inner product (f, g), antilinear in f.

    (f, f) is integrated once per spec and then kept on f.
    """
    _member(f, "inner_product")
    _member(g, "inner_product")
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    if f is g:
        value = f._self_products.get(spec)
        if value is None:
            value = f._self_products[spec] = _overlap(f, f, spec)
        return value
    return _overlap(f, g, spec)


def _overlap(f: TestFunction, g: TestFunction, spec: QuadratureSpec) -> complex:
    """Integral of conj(f) g over the intersection of the two supports,
    with the steps as starting panel edges."""
    lo, hi = _support(f, spec)
    if g is not f:
        lo_g, hi_g = _support(g, spec)
        lo, hi = max(lo, lo_g), min(hi, hi_g)
    if hi <= lo:
        return 0j
    hint = f.max_phase() + g.max_phase()
    return _run(lambda x: _product(f, g, x), lo, hi, spec, hint,
                (f.model.a, f.model.b)).value


def _d(c: np.ndarray) -> np.ndarray:
    """d/dx of sum over r, s of c[r, s] x^r f^(s): the product rule."""
    out = np.zeros((c.shape[0], c.shape[1] + 1), dtype=c.dtype)
    out[:, 1:] = c
    out[:-1, :-1] += np.arange(1, c.shape[0])[:, None] * c[1:]
    return out


def _letter(letter: str, c: np.ndarray, p: complex, kinetic: float,
            v: float) -> np.ndarray:
    """One letter applied to sum over r, s of c[r, s] x^r f^(s): Q shifts
    r, D is d, P is p d, H is kinetic d^2 + v."""
    if letter == "Q":
        return np.concatenate([np.zeros((1, c.shape[1]), dtype=c.dtype), c])
    if letter == "D":
        return _d(c)
    if letter == "P":
        return p * _d(c)
    h = kinetic * _d(_d(c))
    h[:, :c.shape[1]] += v * c
    return h


@lru_cache(maxsize=32)
def _words(order: int) -> tuple:
    """Every word in Q, P and H of one order (Q and P count one, H two),
    spelled with the letter that acts last first: Q or P before each word
    of order - 1, then H before each word of order - 2."""
    if order <= 0:
        return ("",) if order == 0 else ()
    return tuple(a + w for a in "QP" for w in _words(order - 1)) + \
        tuple("H" + w for w in _words(order - 2))


@lru_cache(maxsize=1024)
def _word(model: BarrierModel, word: str) -> tuple:
    """The coefficients c[r, s] of a word in Q, P, H and D (see _words),
    which maps f to sum over r, s of c[r, s] x^r f^(s) where V is constant.

    Returns (outside, inside), for V = 0 and for V = v0; inside is None
    where the two agree.  The letters compose exactly, one at a time onto
    the word's cached suffix: H is -(hbar^2/2m) d^2 + V, Q shifts r, P is
    -i hbar d, D is d.
    """
    if not word:
        one = np.ones((1, 1), dtype=complex)
        one.setflags(write=False)
        return one, None
    outside, inside = _word(model, word[1:])
    p, kinetic = -1j * model.hbar, -model.hbar ** 2 / (2.0 * model.mass)
    sides = [_letter(word[0], c, p, kinetic, v) for c, v in (
        (outside, 0.0), (outside if inside is None else inside, model.v0))]
    for c in sides:
        c.setflags(write=False)
    outside, inside = sides
    return outside, None if np.array_equal(outside, inside) else inside


@lru_cache(maxsize=64)
def _majorants(model: BarrierModel, order: int) -> tuple:
    """Real arrays such that |c| of every word of one order, on either
    region, lies elementwise under one of them.

    They are built as the words are, one letter onto those of order - 1
    (Q, P) and order - 2 (H), with each letter's factors replaced by their
    moduli, which bounds |c| by the triangle inequality.  An array that
    lies under another one is dropped, which keeps tens to a few hundred
    of them at order 16, where the words number 470832.
    """
    if order <= 0:
        return (np.ones((1, 1)),) if order == 0 else ()
    p, kinetic = model.hbar, model.hbar ** 2 / (2.0 * model.mass)
    grown = [_letter(a, c, p, kinetic, model.v0)
             for a, prev in (("Q", order - 1), ("P", order - 1),
                             ("H", order - 2))
             for c in _majorants(model, prev)]
    # r counts the Q and s at most the order: pad every array to that.
    stack = np.zeros((len(grown), order + 1, order + 1))
    for k, c in enumerate(grown):
        stack[k, :c.shape[0], :c.shape[1]] = c
    stack = np.unique(stack, axis=0)
    flat = stack.reshape(len(stack), -1)
    # Distinct arrays, so only another one can lie above a row everywhere.
    kept = [k for k in range(len(stack))
            if np.count_nonzero((flat >= flat[k]).all(axis=1)) == 1]
    return tuple(stack[kept])


@lru_cache(maxsize=64)
def _log_coef_bound(model: BarrierModel, order: int) -> float:
    """log of a bound on the sum of |c[r, s]| over every word of one
    order (see _majorants), and at least 0."""
    return math.log(max([1.0] + [float(c.sum())
                                 for c in _majorants(model, order)]))


def _jet_support(f: TestFunction, order: int, spec: QuadratureSpec) -> tuple:
    """The interval of every seminorm of one order, clipped to the spatial
    radius: the union over f's terms of the bound on every word of that
    order applied to the term (see _reach)."""
    radius = spec.spatial_radius
    lo, hi = f._support_bound(radius, order)
    return max(lo, -radius), min(hi, radius)


def _groups(f: TestFunction, word: str) -> list:
    """Per packet of f, the coefficients of word applied to f's terms on
    that packet (see _word), summed over the terms: a list of
    (packet, outside, inside), inside None where V drops out."""
    parts: dict = {}
    for t in f.terms:
        parts.setdefault(t.packet, []).append(
            (t.coef, _word(f.model, word + t.word)))
    groups = []
    for packet, pairs in parts.items():
        rows = max(c.shape[0] for _, (c, _) in pairs)
        cols = max(c.shape[1] for _, (c, _) in pairs)
        split = any(inside is not None for _, (_, inside) in pairs)
        sums = np.zeros((1 + split, rows, cols), dtype=complex)
        for coef, (outside, inside) in pairs:
            r, s = outside.shape
            sums[0, :r, :s] += coef * outside
            if split:
                sums[1, :r, :s] += coef * (outside if inside is None
                                           else inside)
        groups.append((packet, sums[0], sums[1] if split else None))
    return groups


def _horner(c: np.ndarray, jet: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum over r, s of c[r, s] x^r jet[s]: the jet contracted first, the
    powers of x summed by Horner's rule."""
    if c.shape == (1, 1):
        return c[0, 0] * jet[0]
    q = np.einsum("rs,sn->rn", c, jet[:c.shape[1]])
    v = q[-1].copy()
    for r in range(q.shape[0] - 2, -1, -1):
        v *= x
        v += q[r]
    return v


def _word_values(f: TestFunction, groups: list, x: np.ndarray, jets: dict,
                 top: int | None = None) -> np.ndarray:
    """The image of f under a word, given by its groups (see _groups), on x.

    jets maps a packet to its jet on the whole of x.  A packet it lacks
    gets one, of order top, or else of the highest derivative its
    coefficients read, so a node's value never depends on what else was
    asked.
    """
    model = f.model
    total = inner = None
    for packet, outside, inside in groups:
        jet = jets.get(packet)
        if jet is None:
            jet = jets[packet] = _jet(model, packet, x, outside.shape[1] - 1
                                      if top is None else top)
        if inside is not None and inner is None:
            inner = (x >= model.a) & (x <= model.b)
        if inside is None or not inner.any():
            v = _horner(outside, jet, x)
        elif inner.all():
            v = _horner(inside, jet, x)
        else:
            v = np.empty(x.size, dtype=complex)
            for sel, c in ((~inner, outside), (inner, inside)):
                v[sel] = _horner(c, jet[:, sel], x[sel])
        total = v if total is None else total + v
    return np.zeros(x.size, dtype=complex) if total is None else total


def _word_panels(f: TestFunction, groups: list, start: dict, top: int):
    """Panel evaluator (see quadrature._adaptive) of |W f|^2 for the word
    behind groups.  The starting round, the only one that evaluates every
    part, reads and fills f's jets of order top on its nodes, start; later
    rounds compute theirs afresh."""
    def density(jets, order, x):
        v = _word_values(f, groups, x, jets, order)
        return v.real * v.real + v.imag * v.imag

    def panels(mid, half, offsets, widths):
        first = len(offsets) == len(_PARTS_X)
        return _eval_panels(partial(density, start if first else {},
                                    top if first else None),
                            False, mid, half, offsets, widths)

    return panels


def _word_norm(f: TestFunction, word: str, spec: QuadratureSpec) -> float:
    """The norm of W f for a word W in Q, P and H (see _words).

    Order 0 is the square root of the kept self product (f, f).  Above it,
    |W f|^2 is integrated from f's jets over _jet_support, with the steps
    as starting panel edges.  Every word of one order K thus starts on the
    same panels, and f keeps each packet's jet there, per K, for the next
    word.
    """
    order = _order(word)
    if order == 0:
        return math.sqrt(max(inner_product(f, f, spec).real, 0.0))
    lo, hi = _jet_support(f, order, spec)
    if hi <= lo:
        return 0.0
    start = f._jets.setdefault(
        (order, spec.spatial_radius, spec.max_subdivisions), {})
    top = order + max(_order(t.word) for t in f.terms)
    model = f.model
    vals, _, _, _, _ = _adaptive(
        _word_panels(f, _groups(f, word), start, top), lo, hi, spec,
        2.0 * f.max_phase(), breaks=(model.a, model.b))
    return math.sqrt(max(float(vals[0]), 0.0))


def seminorm(f: TestFunction, n: int, m: int, l: int, spec: QuadratureSpec) -> float:
    """The norm of P^n Q^m H^l f (H applied first, then Q, then P), from
    f's derivative jets (see _word_norm)."""
    _member(f, "seminorm")
    for v, name in ((n, "n"), (m, "m"), (l, "l")):
        if v < 0:
            raise DomainError(f"seminorm index {name} must be >= 0")
    order = n + m + 2 * l
    if order > f.order_cap:
        raise CapabilityError(
            f"seminorm order n+m+2l = {order} exceeds cap {f.order_cap}")
    return _word_norm(f, "P" * n + "Q" * m + "H" * l, spec)
