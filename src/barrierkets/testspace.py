"""Smooth test functions that vanish at the barrier steps, with exact calculus.

A function is a short tuple of blocks, one per envelope

    E(x) = e^{iqx} * e^{-(u/w)^2} * e^{-s^2/(x-a)^2} * e^{-s^2/(x-b)^2},

u = x - g, optionally clipped to the barrier interval [a, b] (the potential
part of H does that).  a and b are the step positions and s the window
sharpness, all taken from the model.  Each block holds one dense complex
tensor C, and its value is

    sum over i, j, p of  C[i, j, p] * u^p * (x-a)^(-i) * (x-b)^(-j) * E(x).

The windows pin the function and every one of its derivatives to zero at
the steps, and the poles only ever sit under the window at the same point.
The family is closed under d/dx, multiplication by x, and multiplication by
the potential, so Q, P and H act exactly on C: no numerical differentiation
happens anywhere.  d/dx is seven shifted adds on C, the product rule on u^p,
on each pole power and on each of the three exponents of E; Q is a shift in
p plus g * C; H is -hbar^2/2m d^2 plus a block v0 * C clipped to [a, b]; sums
and scalings are padded adds.  Blocks keep the order of their envelopes, so
a fixed input gives the same bits every time.

Pole factors are never expanded into the numerator polynomial: a
common-denominator form would need the numerator to cancel against the
divided-out poles wherever the poles blow up, which costs all significant
digits by derivative order three.  Keeping the two pole powers as tensor
axes bounds every polynomial degree by the derivative order, at the price of
a number of nonzero (i, j) rows that grows like the square of the order;
evaluation contracts those rows as matrix products, one pass per block.
Exponentially large and small factors are assembled in log space, so
window-times-pole products near the steps neither overflow nor produce
0 * inf.  Polynomials are stored in the shifted variable u = x - g of the
Gaussian envelope, where they stay well conditioned over the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError
from .model import BarrierModel, Observable
from .quadrature import QuadratureSpec, integrate_line

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
# Relative magnitude below which a row is considered absent from an interval
# when computing certified support bounds.
_SUPPORT_CUTOFF_LOG = 41.5  # -ln(1e-18)
# Rows times points per evaluation chunk (at most 2048 points): keeps the
# row-by-point matrices in cache.
_EVAL_CHUNK = 1 << 16
# Distance from a Gaussian's center, in widths, beyond which a block is
# exactly 0 in floating point: its envelope is below e^-1e300, and no pole,
# polynomial or coefficient factor of doubles makes up for that.
_FAR_WIDTHS = 1e150


class _Block(NamedTuple):
    """One envelope and its coefficient tensor; see the module docstring."""

    clipped: bool      # restricted to [a, b]
    phase: float       # q in e^{iqx}
    gauss: tuple       # (g, w): center and width of the Gaussian
    coef: np.ndarray   # C[i, j, p], complex


class _Rows(NamedTuple):
    """The nonzero (i, j) rows of one block, ready for evaluation.

    Rows are ordered by the parities of (i, j): even-even, odd-even,
    odd-odd, even-odd, so that the rows with odd i and those with odd j
    are each one slice.
    """

    i: np.ndarray          # pole power at a, per row
    j: np.ndarray          # pole power at b, per row
    deg: np.ndarray        # trimmed polynomial degree, per row
    log_scale: np.ndarray  # log of the row's largest |coefficient|
    expo: np.ndarray       # (rows, 2 or 4): weights of 1, log E, log|x-a|, log|x-b|
    poly: np.ndarray       # (2 * powers of u, rows): real parts, then
                           # imaginary parts, divided by the row's scale
    odd_i: slice
    odd_j: slice


def _padded_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(np.maximum(x.shape, y.shape), dtype=complex)
    out[tuple(map(slice, x.shape))] += x
    out[tuple(map(slice, y.shape))] += y
    return out


def _collect(blocks) -> tuple:
    """Sum blocks that share an envelope, drop zero blocks, fix the order."""
    sums: dict = {}
    for blk in blocks:
        key = blk[:3]  # the envelope: clipped, phase, gauss
        prev = sums.get(key)
        sums[key] = blk.coef if prev is None else _padded_add(prev, blk.coef)
    return tuple(_Block(*key, c) for key, c in sorted(sums.items(),
                                                       key=lambda kv: kv[0])
                 if c.any())


def _derivative(blk: _Block, s: float) -> _Block:
    """d/dx of one block: the seven shifted adds of the product rule."""
    c = blk.coef
    ni, nj, npow = c.shape
    w = blk.gauss[1]
    i = np.arange(ni)[:, None, None]
    j = np.arange(nj)[None, :, None]
    d = np.zeros((ni + 3, nj + 3, npow + 1), dtype=complex)
    d[:ni, :nj, :npow - 1] += c[:, :, 1:] * np.arange(1, npow)  # u^p
    d[1:ni + 1, :nj, :npow] -= i * c                    # (x-a)^-i
    d[:ni, 1:nj + 1, :npow] -= j * c                    # (x-b)^-j
    d[:ni, :nj, :npow] += 1j * blk.phase * c            # e^{iqx}
    d[:ni, :nj, 1:] += (-2.0 / w**2) * c                # e^{-(u/w)^2}
    d[3:, :nj, :npow] += 2.0 * s * s * c                # window at a
    d[:ni, 3:, :npow] += 2.0 * s * s * c                # window at b
    return blk._replace(coef=d)


def _times_x(blk: _Block) -> _Block:
    """x = u + g times one block: a shift in p plus g * C."""
    c = blk.coef
    d = np.zeros(c.shape[:2] + (c.shape[2] + 1,), dtype=complex)
    d[:, :, 1:] += c
    d[:, :, :-1] += blk.gauss[0] * c
    return blk._replace(coef=d)


def _rows(blk: _Block) -> _Rows:
    c = blk.coef
    ni, nj, npow = c.shape
    scale = np.abs(c).max(axis=2)
    ii, jj = np.nonzero(scale)
    parity = 2 * (jj & 1) + ((ii ^ jj) & 1)
    order = np.argsort(parity, kind="stable")
    ii, jj = ii[order], jj[order]
    bounds = np.searchsorted(parity[order], [1, 2, 3])
    s = scale[ii, jj]
    coef = c[ii, jj]
    deg = npow - 1 - np.argmax(coef[:, ::-1] != 0.0, axis=1)
    log_scale = np.log(s)
    expo = np.column_stack([log_scale, np.ones(ii.size), -ii, -jj])
    if not (ii.any() or jj.any()):
        expo = expo[:, :2]  # no poles: their logs are never needed
    # Real divisions: a complex one overflows for a subnormal scale.
    return _Rows(ii, jj, deg, log_scale, expo,
                 np.concatenate([coef.real.T, coef.imag.T]) / s,
                 slice(bounds[0], bounds[2]), slice(bounds[1], ii.size))


def _block_values(blk: _Block, rows: _Rows, model: BarrierModel,
                  x: np.ndarray) -> np.ndarray:
    """Value of one block on x, contracted over its nonzero rows.

    The magnitude of each row's pole-times-envelope factor is one matrix
    product in log space and one real exp; its sign is (-1)^i left of a
    times (-1)^j left of b.  At a step the value is zero by rule, and so it
    is _FAR_WIDTHS widths from the center, where the squares below would
    overflow.
    """
    g, w = blk.gauss
    s2 = (WINDOW_SHARPNESS_FRACTION * model.width) ** 2
    npow = rows.poly.shape[0] // 2
    out = np.empty(x.size, dtype=complex)
    step = _EVAL_CHUNK // max(rows.i.size, 32)
    for lo in range(0, x.size, step):
        xc = x[lo:lo + step]
        far = np.abs(xc - g) > _FAR_WIDTHS * w
        if far.any():
            xc = np.where(far, g, xc)
        da = xc - model.a
        db = xc - model.b
        dead = (da == 0.0) | (db == 0.0)
        da[dead] = 1.0
        db[dead] = 1.0
        logs = np.empty((rows.expo.shape[1], xc.size))
        logs[0] = 1.0
        logs[1] = -s2 / (da * da) - s2 / (db * db) - ((xc - g) / w) ** 2
        logs[1, dead] = -np.inf
        if logs.shape[0] == 4:
            np.log(np.abs(da), out=logs[2])
            np.log(np.abs(db), out=logs[3])
        mag = np.exp(rows.expo @ logs)
        if rows.odd_i.stop > rows.odd_i.start:
            mag[rows.odd_i] *= np.sign(da)
        if rows.odd_j.stop > rows.odd_j.start:
            mag[rows.odd_j] *= np.sign(db)
        # Coefficient of u^p at each point, real and imaginary parts.
        by_power = np.dot(rows.poly, mag).reshape(2, npow, xc.size)
        u = xc - g
        acc = by_power[:, -1].copy()
        for p in range(npow - 2, -1, -1):
            acc *= u
            acc += by_power[:, p]
        vals = out[lo:lo + step]
        vals.real = acc[0]
        vals.imag = acc[1]
        if blk.phase:
            vals *= np.exp(1j * (blk.phase * xc))
        vals[far] = 0.0
    return out


class TestFunction:
    """An element of the test-function algebra over one barrier model.

    `terms` is a tuple of blocks, one per envelope (phase q, Gaussian
    `gauss` = (center, width), and whether it is clipped to the barrier),
    each carrying the coefficient tensor C[i, j, p] of the module docstring.
    Treat instances as immutable.  Derivatives and the images under Q, P
    and H are cached as chains, so repeated evaluation at increasing order,
    and seminorms whose operator words share a prefix, repeat no symbolic
    work; the nonzero rows each evaluation contracts are found once.  The
    support interval per radius and the self inner product (f, f) per
    QuadratureSpec are kept too, so a norm asked for again integrates
    nothing.
    """

    __slots__ = ("model", "terms", "_deriv", "_images", "_plan",
                 "_supports", "_self_products", "__weakref__")
    order_cap = ORDER_CAP

    def __init__(self, model: BarrierModel, terms):
        self.model = model
        self.terms = tuple(terms)
        self._deriv = None
        self._images = {}
        self._plan = None
        self._supports = {}
        self._self_products = {}

    def derivative(self) -> "TestFunction":
        if self._deriv is None:
            s = WINDOW_SHARPNESS_FRACTION * self.model.width
            self._deriv = TestFunction(
                self.model, (_derivative(b, s) for b in self.terms))
        return self._deriv

    def scaled(self, factor: complex) -> "TestFunction":
        return TestFunction(self.model, (b._replace(coef=b.coef * factor)
                                         for b in self.terms))

    def max_phase(self) -> float:
        return max((abs(b.phase) for b in self.terms), default=0.0)

    def _block_rows(self) -> tuple:
        if self._plan is None:
            self._plan = tuple(_rows(b) for b in self.terms)
        return self._plan

    def support_interval(self, radius: float) -> tuple[float, float]:
        """Interval certified to contain all of |f| above 1e-18 relative.

        The bound takes each nonzero row on its own and accounts for
        polynomial growth up to |x| = radius and for the worst windowed-pole
        amplification, so it stays valid for high derivatives.
        """
        interval = self._supports.get(radius)
        if interval is None:
            interval = self._supports[radius] = self._support_bound(radius)
        return interval

    def _support_bound(self, radius: float) -> tuple[float, float]:
        lo = math.inf
        hi = -math.inf
        s = WINDOW_SHARPNESS_FRACTION * self.model.width
        for blk, rows in zip(self.terms, self._block_rows()):
            if rows.i.size == 0:
                continue
            g, w = blk.gauss
            margin = _SUPPORT_CUTOFF_LOG + np.log(rows.deg + 1.0)
            margin += rows.deg * math.log(2.0 + radius + abs(g))
            margin += np.maximum(0.0, rows.log_scale)
            # max over x of |x-pos|^-i e^{-s^2/(x-pos)^2}
            for power in (rows.i, rows.j):
                margin += 0.5 * power * np.log1p(power / (2.0 * math.e * s * s))
            delta = w * math.sqrt(float(margin.max()))
            lo = min(lo, g - delta)
            hi = max(hi, g + delta)
        if lo > hi:
            return (0.0, 0.0)
        return (lo, hi)

    def _values(self, x: np.ndarray, n: int) -> np.ndarray:
        f = self
        for _ in range(n):
            f = f.derivative()
        model = f.model
        total = np.zeros(x.shape, dtype=complex)
        for blk, rows in zip(f.terms, f._block_rows()):
            if blk.clipped:
                inside = np.flatnonzero((x >= model.a) & (x <= model.b))
                total[inside] += _block_values(blk, rows, model, x[inside])
            else:
                total += _block_values(blk, rows, model, x)
        return total

    def __call__(self, x, n: int = 0):
        return evaluate(self, x, n)


class _SlowDecay:
    """g(x) = 1/(x + i), outside the algebra: it has no envelope blocks."""

    terms = ()

    def __init__(self, model: BarrierModel):
        self.model = model

    def _values(self, x: np.ndarray, n: int) -> np.ndarray:
        # d^n/dx^n (x + i)^-1 = (-1)^n n! (x + i)^-(n+1)
        return (-1) ** n * math.factorial(n) / (x + 1j) ** (n + 1)


def evaluate(f: TestFunction, x, n: int = 0):
    """Evaluate the n-th derivative of f at x (scalar or array), exactly.

    The derivative is symbolic; n beyond the order cap raises
    CapabilityError.  At a window position the value is zero by rule, not by
    cancellation, so it is exact at every derivative order.
    """
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if n > ORDER_CAP:
        raise CapabilityError(f"derivative order {n} exceeds cap {ORDER_CAP}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    total = f._values(x_arr, n)
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
    image = f._images.get(observable)
    if image is None:
        image = f._images[observable] = _apply(observable, f)
    return image


def _apply(observable: Observable, f: TestFunction) -> TestFunction:
    model = f.model
    if observable is Observable.Q:
        return TestFunction(model, (_times_x(b) for b in f.terms))
    if observable is Observable.P:
        return f.derivative().scaled(-1j * model.hbar)
    if observable is Observable.H:
        factor = -model.hbar**2 / (2.0 * model.mass)
        parts = [b._replace(coef=b.coef * factor)
                 for b in f.derivative().derivative().terms]
        if model.v0 != 0.0:
            parts += [b._replace(clipped=True, coef=b.coef * model.v0)
                      for b in f.terms]
        return TestFunction(model, _collect(parts))
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


def build_test_function(model: BarrierModel, packet: GaussianPacket) -> TestFunction:
    """Construct a windowed Gaussian packet as a TestFunction."""
    if not (packet.width > 0.0 and math.isfinite(packet.width)):
        raise DomainError(f"packet width must be positive, got {packet.width}")
    if packet.poly_degree < 0:
        raise DomainError("poly_degree must be >= 0")
    # (x - center)^degree is u^degree in the block's shifted variable.
    coef = np.zeros((1, 1, packet.poly_degree + 1), dtype=complex)
    coef[0, 0, -1] = 1.0
    block = _Block(clipped=False, phase=packet.momentum / model.hbar,
                   gauss=(packet.center, packet.width), coef=coef)
    return TestFunction(model, (block,))


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
    return TestFunction(f.model, _collect(
        [b._replace(coef=b.coef * alpha) for b in f.terms]
        + [b._replace(coef=b.coef * beta) for b in g.terms]))


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
    """Integral of conj(f) g over the intersection of the two supports."""
    lo_f, hi_f = _support(f, spec)
    lo_g, hi_g = _support(g, spec)
    lo, hi = max(lo_f, lo_g), min(hi_f, hi_g)
    if hi <= lo:
        return 0j
    hint = f.max_phase() + g.max_phase()
    res = integrate_line(lambda x: _product(f, g, x),
                         spec, lo=lo, hi=hi, freq_hint=hint)
    return res.value


def seminorm(f: TestFunction, n: int, m: int, l: int, spec: QuadratureSpec) -> float:
    """The norm of P^n Q^m H^l f (H applied first, then Q, then P)."""
    _member(f, "seminorm")
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
