"""Smooth test functions that vanish at the barrier steps, with exact calculus.

A function is a short tuple of blocks, one per envelope

    E(x) = e^{iqx} * e^{-(u/w)^2} * e^{-s^2/(x-a)^2} * e^{-s^2/(x-b)^2},

u = x - g, optionally clipped to the barrier interval [a, b] (the potential
part of H does that).  a and b are the step positions and s the window
sharpness, all taken from the model.  Each block holds one dense complex
tensor C, stored power-major, and its value is

    sum over p, i, j of  C[p, i, j] * u^p * (x-a)^(-i) * (x-b)^(-j) * E(x).

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
With the powers on the leading axis, finding the nonzero rows and their
scales reduces over that axis, and the gathered (powers, rows) slice is the
matrix the contraction needs.  Exponentially large and small factors are
assembled in log space, so window-times-pole products near the steps
neither overflow nor produce 0 * inf.  Polynomials are stored in the
shifted variable u = x - g of the Gaussian envelope, where they stay well
conditioned over the support.

Each block's rows are planned on first use, by the support bound or by an
evaluation that has nodes on the block.  A clipped block is zero outside
[a, b], and so are all its derivatives: its support counts only inside
[a, b], a clipped block that a bound from its tensor's shape alone keeps
away from [a, b] is never planned, and one is evaluated only when nodes
fall inside [a, b].

The norms ||W f|| of the words W in Q, P and H that define the space (the
seminorms ||P^n Q^m H^l f|| and the invariance battery's words) build no
image.  V is constant on each of the three regions cut by the steps, and f
vanishes with every derivative at the steps, so on a region a word of order
K (Q and P count one, H two) is a differential operator with polynomial
coefficients and no boundary terms: W f = sum over r, s <= K of
c[r, s] x^r f^(s), the exact c composed once per model and word, one letter
at a time.  A norm of order K >= 1 integrates |that|^2 from f's derivative
jet f, f', ..., f^(K), over an interval and starting panels that depend
only on f, the spatial radius and K.  So every word of one order starts on
the same nodes, where f keeps the derivatives sampled: the 94 seminorms of
order 1 to 8 that define membership read at most 44 derivative samples of
those nodes where the symbolic route evaluated 94 images, and after them
the battery's 48 words of order 1 to 4 sample none there.
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
    coef: np.ndarray   # C[p, i, j], complex


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
    """d/dx of one block: the seven shifted adds of the product rule.

    C is copied into the shape of the result, padded with one power and
    three pole powers of zeros, so each shift is a shift of the flat
    array.  What wraps round from the padding is a zero, and adding a zero
    leaves every sum's bits as they are.
    """
    c = blk.coef
    npow, ni, nj = c.shape
    w = blk.gauss[1]
    shape = (npow + 1, ni + 3, nj + 3)
    cp = np.zeros(shape, dtype=complex)
    cp[:npow, :ni, :nj] = c
    d = np.zeros(cp.size, dtype=complex)
    t = np.empty(shape, dtype=complex)
    flat, tf = cp.ravel(), t.ravel()
    sp, si = shape[1] * shape[2], shape[2]  # flat steps of p and of i
    np.multiply(cp, np.arange(shape[0])[:, None, None], out=t)
    d[:-sp] += tf[sp:]                                  # u^p
    np.multiply(cp, np.arange(shape[1])[:, None], out=t)
    d[si:] -= tf[:-si]                                  # (x-a)^-i
    np.multiply(cp, np.arange(shape[2]), out=t)
    d[1:] -= tf[:-1]                                    # (x-b)^-j
    np.multiply(1j * blk.phase, flat, out=tf)
    d += tf                                             # e^{iqx}
    np.multiply(-2.0 / w**2, flat, out=tf)
    d[sp:] += tf[:-sp]                                  # e^{-(u/w)^2}
    np.multiply(2.0 * s * s, flat, out=tf)
    d[3 * si:] += tf[:-3 * si]                          # window at a
    d[3:] += tf[:-3]                                    # window at b
    return blk._replace(coef=d.reshape(shape))


def _times_x(blk: _Block) -> _Block:
    """x = u + g times one block: a shift in p plus g * C."""
    c = blk.coef
    d = np.zeros((c.shape[0] + 1,) + c.shape[1:], dtype=complex)
    d[1:] += c
    d[:-1] += blk.gauss[0] * c
    return blk._replace(coef=d)


def _rows(blk: _Block) -> _Rows:
    c = blk.coef
    npow = c.shape[0]
    ii, jj = np.nonzero(c.any(axis=0))
    parity = 2 * (jj & 1) + ((ii ^ jj) & 1)
    order = np.argsort(parity, kind="stable")
    ii, jj = ii[order], jj[order]
    bounds = np.searchsorted(parity[order], [1, 2, 3])
    coef = c[:, ii, jj]  # (powers, rows)
    s = np.abs(coef).max(axis=0)
    deg = npow - 1 - np.argmax(coef[::-1] != 0.0, axis=0)
    log_scale = np.log(s)
    poles = ii.any() or jj.any()  # without poles their logs are never needed
    expo = np.empty((ii.size, 4 if poles else 2))
    expo[:, 0] = log_scale
    expo[:, 1] = 1.0
    if poles:
        expo[:, 2] = -ii
        expo[:, 3] = -jj
    # Real divisions: a complex one overflows for a subnormal scale.
    return _Rows(ii, jj, deg, log_scale, expo,
                 np.concatenate([coef.real, coef.imag]) / s,
                 slice(bounds[0], bounds[2]), slice(bounds[1], ii.size))


def _block_values(blk: _Block, rows: _Rows, model: BarrierModel,
                  x: np.ndarray) -> np.ndarray:
    """Value of one block on x, contracted over its nonzero rows.

    The magnitude of each row's pole-times-envelope factor is one matrix
    product in log space and one real exp; its sign is (-1)^i left of a
    times (-1)^j left of b.  When a chunk of nodes lies on one side of each
    step, those signs are the same for every node, and they flip columns of
    the polynomial matrix instead of rows of the magnitudes.  At a step the
    value is zero by rule, and so it is _FAR_WIDTHS widths from the center,
    where the squares below would overflow; the masks that handle such
    nodes are built only for a chunk that holds one.
    """
    g, w = blk.gauss
    a, b = model.a, model.b
    far_u = _FAR_WIDTHS * w
    s2 = (WINDOW_SHARPNESS_FRACTION * model.width) ** 2
    npow = rows.poly.shape[0] // 2
    odd_i, odd_j = rows.odd_i, rows.odd_j
    # Rows whose sign flips left of a (i + j odd) and inside (j odd).
    flips_left = (slice(odd_i.start, odd_j.start), slice(odd_i.stop, None))
    out = np.empty(x.size, dtype=complex)
    step = _EVAL_CHUNK // max(rows.i.size, 32)
    for lo in range(0, x.size, step):
        xc = x[lo:lo + step]
        x_lo, x_hi = xc.min(), xc.max()
        u = xc - g
        da = xc - a
        db = xc - b
        if x_hi < a:
            flips = flips_left
        elif x_lo > b:
            flips = ()
        elif a < x_lo and x_hi < b:
            flips = (odd_j,)
        else:
            flips = None  # the nodes straddle or touch a step
        far = dead = None
        # x - g is monotone in x, so the extremes decide whether any node
        # is far; da * db is 0 on a step (or where it underflows, which the
        # masks then handle exactly).
        if max(x_hi - g, g - x_lo) > far_u or (
                flips is None and not (da * db).all()):
            far = np.abs(u) > far_u
            if far.any():
                xc = np.where(far, g, xc)
                u = xc - g
                da = xc - a
                db = xc - b
            dead = (da == 0.0) | (db == 0.0)
            da[dead] = 1.0
            db[dead] = 1.0
            flips = None
        logs = np.empty((rows.expo.shape[1], xc.size))
        logs[0] = 1.0
        # log E = -s2/da^2 - s2/db^2 - (u/w)^2, formed in place.
        e, tmp = logs[1], np.empty(xc.size)
        np.divide(-s2, np.multiply(da, da, out=e), out=e)
        e -= np.divide(s2, np.multiply(db, db, out=tmp), out=tmp)
        e -= np.square(np.divide(u, w, out=tmp), out=tmp)
        if dead is not None:
            e[dead] = -np.inf
        if logs.shape[0] == 4:
            np.log(np.abs(da, out=tmp), out=logs[2])
            np.log(np.abs(db, out=tmp), out=logs[3])
        mag = np.exp(rows.expo @ logs)
        poly = rows.poly
        if flips is None:
            if odd_i.stop > odd_i.start:
                mag[odd_i] *= np.sign(da)
            if odd_j.stop > odd_j.start:
                mag[odd_j] *= np.sign(db)
        elif flips:
            # -p * m is -(p * m) exactly, so the products are unchanged.
            poly = poly.copy(order="K")  # same layout, same BLAS path
            for sl in flips:
                poly[:, sl] *= -1.0
        # Coefficient of u^p at each point, real and imaginary parts.
        by_power = np.dot(poly, mag).reshape(2, npow, xc.size)
        acc = by_power[:, -1].copy()
        for p in range(npow - 2, -1, -1):
            acc *= u
            acc += by_power[:, p]
        vals = out[lo:lo + step]
        vals.real = acc[0]
        vals.imag = acc[1]
        if blk.phase:
            vals *= _cis(blk.phase * xc)
        if far is not None:
            vals[far] = 0.0
    return out


class TestFunction:
    """An element of the test-function algebra over one barrier model.

    `terms` is a tuple of blocks, one per envelope (phase q, Gaussian
    `gauss` = (center, width), and whether it is clipped to the barrier),
    each carrying the coefficient tensor C[p, i, j] of the module docstring.
    Treat instances as immutable.  Derivatives and the images under Q, P
    and H are cached as chains, so repeated evaluation at increasing order
    repeats no symbolic work; each block's nonzero rows are found once, on
    first use.  Also kept: the support interval per radius, and per radius
    and seminorm order; the self inner product (f, f) per QuadratureSpec,
    so a norm asked for again integrates nothing; and, per seminorm order,
    the derivatives of f sampled on that order's starting panels (see
    seminorm).
    """

    __slots__ = ("model", "terms", "_deriv", "_images", "_plan",
                 "_supports", "_self_products", "_jets", "__weakref__")
    order_cap = ORDER_CAP

    def __init__(self, model: BarrierModel, terms):
        self.model = model
        self.terms = tuple(terms)
        self._deriv = None
        self._images = {}
        self._plan = None
        self._supports = {}
        self._self_products = {}
        self._jets = {}

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

    def _block_rows(self, k: int) -> _Rows:
        """The row plan of block k, made on first use."""
        if self._plan is None:
            self._plan = [None] * len(self.terms)
        rows = self._plan[k]
        if rows is None:
            rows = self._plan[k] = _rows(self.terms[k])
        return rows

    def support_interval(self, radius: float) -> tuple[float, float]:
        """Interval certified to contain all of |f| above 1e-18 relative.

        The bound takes each nonzero row on its own and accounts for
        polynomial growth up to |x| = radius and for the worst windowed-pole
        amplification, so it stays valid for high derivatives.  A block
        clipped to [a, b] counts only inside [a, b].
        """
        interval = self._supports.get(radius)
        if interval is None:
            lo, hi = self._support_bound(radius)
            interval = self._supports[radius] = (lo, hi) if lo <= hi \
                else (0.0, 0.0)
        return interval

    def _support_bound(self, radius: float, x_power: int = 0,
                       log_coef: float = 0.0) -> tuple[float, float]:
        """The support bound of f times any sum of c[r] x^r with
        r <= x_power and log(sum of |c[r]|) <= log_coef: both widen every
        row's margin.  An empty bound is (inf, -inf)."""
        lo = math.inf
        hi = -math.inf
        a, b = self.model.a, self.model.b
        s = WINDOW_SHARPNESS_FRACTION * self.model.width
        for k, blk in enumerate(self.terms):
            g, w = blk.gauss
            npow, ni, nj = blk.coef.shape
            # max over x of |x-pos|^-p e^{-s^2/(x-pos)^2}, per pole power p
            power = np.arange(max(ni, nj))
            pole = 0.5 * power * np.log1p(power / (2.0 * math.e * s * s))
            growth = math.log(2.0 + radius + abs(g))
            extra = x_power * growth + log_coef
            if blk.clipped:
                # The top power, the top pole powers and the largest |C|
                # (at most sqrt(2) times the largest |real or imaginary
                # part|) bound every row's margin below; one more unit
                # covers rounding.  A clipped block out of [a, b]'s reach
                # is skipped before its rows are planned.
                top = np.abs(blk.coef.view(float)).max() * math.sqrt(2.0)
                margin = (_SUPPORT_CUTOFF_LOG + 1.0 + math.log(npow)
                          + (npow - 1) * growth + math.log(max(top, 1.0))
                          + pole[ni - 1] + pole[nj - 1] + extra)
                reach = w * math.sqrt(margin)
                if g + reach < a or g - reach > b:
                    continue
            rows = self._block_rows(k)
            if rows.i.size == 0:
                continue
            margin = _SUPPORT_CUTOFF_LOG + extra + np.log(rows.deg + 1.0)
            margin += rows.deg * growth
            margin += np.maximum(0.0, rows.log_scale)
            margin += pole[rows.i]
            margin += pole[rows.j]
            delta = w * math.sqrt(float(margin.max()))
            b_lo, b_hi = g - delta, g + delta
            if blk.clipped:
                b_lo, b_hi = max(b_lo, a), min(b_hi, b)
                if b_lo > b_hi:
                    continue
            lo = min(lo, b_lo)
            hi = max(hi, b_hi)
        return (lo, hi)

    def _values(self, x: np.ndarray, n: int) -> np.ndarray:
        f = self
        for _ in range(n):
            f = f.derivative()
        model = f.model
        total = np.zeros(x.shape, dtype=complex)
        for k, blk in enumerate(f.terms):
            if blk.clipped:
                inside = np.flatnonzero((x >= model.a) & (x <= model.b))
                if inside.size:
                    total[inside] += _block_values(blk, f._block_rows(k),
                                                   model, x[inside])
            else:
                total += _block_values(blk, f._block_rows(k), model, x)
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
    # (x - center)^degree is u^degree in the block's shifted variable.
    coef = np.zeros((packet.poly_degree + 1, 1, 1), dtype=complex)
    coef[-1, 0, 0] = 1.0
    block = _Block(clipped=False, phase=momentum / model.hbar,
                   gauss=(center, width), coef=coef)
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
    r, P is p d, H is kinetic d^2 + v."""
    if letter == "Q":
        return np.concatenate([np.zeros((1, c.shape[1]), dtype=c.dtype), c])
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
    """The coefficients c[r, s] of a word in Q, P and H (see _words),
    which maps f to sum over r, s of c[r, s] x^r f^(s) where V is constant.

    Returns (outside, inside), for V = 0 and for V = v0; inside is None
    where the two agree.  The letters compose exactly, one at a time onto
    the word's cached suffix: H is -(hbar^2/2m) d^2 + V, Q shifts r, P is
    -i hbar d.
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
    """The interval of every seminorm of one order: the union of the
    support bounds of f, f', ..., f^(order), each widened for a factor
    c x^r of any word of that order, clipped to the spatial radius."""
    radius = spec.spatial_radius
    interval = f._supports.get((radius, order))
    if interval is None:
        log_coef = _log_coef_bound(f.model, order)
        lo, hi, g = math.inf, -math.inf, f
        for s in range(order + 1):
            g_lo, g_hi = g._support_bound(radius, order, log_coef)
            lo, hi = min(lo, g_lo), max(hi, g_hi)
            if s < order:
                g = g.derivative()
        interval = f._supports[(radius, order)] = (max(lo, -radius),
                                                    min(hi, radius))
    return interval


def _word_values(f: TestFunction, word: tuple, x: np.ndarray,
                 jet: dict) -> np.ndarray:
    """The image of f under a word (see _word) on x, from f's derivatives.

    jet maps s to f^(s) on the whole of x; a derivative it lacks is sampled
    over the whole of x and added, so a node's value never depends on what
    else was asked.  The polynomials in x are contracted with the
    derivatives first and then summed by Horner's rule.
    """
    outside, inside = word
    model = f.model
    mask = None
    if inside is not None:
        mask = (x >= model.a) & (x <= model.b)
        if not mask.any():
            inside = mask = None
        elif mask.all():
            outside, mask = inside, None
    needed = (outside != 0).any(axis=0)
    if mask is not None:
        needed |= (inside != 0).any(axis=0)
    cols = np.flatnonzero(needed).tolist()
    for s in cols:
        if s not in jet:
            jet[s] = f._values(x, s)
    derivs = np.stack([jet[s] for s in cols])

    def combine(c, d, xs):
        q = c[:, cols] @ d
        v = q[-1].copy()
        for r in range(q.shape[0] - 2, -1, -1):
            v *= xs
            v += q[r]
        return v

    if mask is None:
        return combine(outside, derivs, x)
    v = np.empty(x.size, dtype=complex)
    for sel, c in ((~mask, outside), (mask, inside)):
        v[sel] = combine(c, derivs[:, sel], x[sel])
    return v


def _word_panels(f: TestFunction, word: tuple, start: dict):
    """Panel evaluator (see quadrature._adaptive) of |word f|^2.  The
    starting round, the only one that evaluates every part, reads and fills
    f's jet on its nodes, start; later rounds sample theirs afresh."""
    def density(jet, x):
        v = _word_values(f, word, x, jet)
        return v.real * v.real + v.imag * v.imag

    def panels(mid, half, offsets, widths):
        jet = start if len(offsets) == len(_PARTS_X) else {}
        return _eval_panels(partial(density, jet), False, mid, half,
                            offsets, widths)

    return panels


def _word_norm(f: TestFunction, word: str, spec: QuadratureSpec) -> float:
    """The norm of W f for a word W in Q, P and H (see _words).

    Order 0 is the square root of the kept self product (f, f).  Above it,
    no image is built: on each region where V is constant the word maps f
    to sum over r, s of c[r, s] x^r f^(s) (see _word), since f vanishes
    with every derivative at the steps, and |that|^2 is integrated over
    _jet_support with the steps as starting panel edges.  Every word of one
    order K thus starts on the same panels, and f keeps the derivatives
    sampled there, per K, for the next word.
    """
    order = len(word) + word.count("H")
    if order == 0:
        return math.sqrt(max(inner_product(f, f, spec).real, 0.0))
    lo, hi = _jet_support(f, order, spec)
    if hi <= lo:
        return 0.0
    start = f._jets.setdefault(
        (order, spec.spatial_radius, spec.max_subdivisions), {})
    model = f.model
    vals, _, _, _, _ = _adaptive(_word_panels(f, _word(model, word), start),
                                 lo, hi, spec, 2.0 * f.max_phase(),
                                 breaks=(model.a, model.b))
    return math.sqrt(max(float(vals[0]), 0.0))


def seminorm(f: TestFunction, n: int, m: int, l: int, spec: QuadratureSpec) -> float:
    """The norm of P^n Q^m H^l f (H applied first, then Q, then P), from
    f's derivative jet (see _word_norm)."""
    _member(f, "seminorm")
    for v, name in ((n, "n"), (m, "m"), (l, "l")):
        if v < 0:
            raise DomainError(f"seminorm index {name} must be >= 0")
    order = n + m + 2 * l
    if order > f.order_cap:
        raise CapabilityError(
            f"seminorm order n+m+2l = {order} exceeds cap {f.order_cap}")
    return _word_norm(f, "P" * n + "Q" * m + "H" * l, spec)
