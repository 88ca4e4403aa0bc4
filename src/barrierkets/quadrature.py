"""Adaptive panel quadrature for complex-valued, vectorized integrands.

One engine serves every integral in the package and builds the spatial
rules of the transforms.  It keeps a worklist of panels, each carrying a
composite 32-point Gauss-Legendre value of its own and of its two halves;
all panels of a round are evaluated in one call of a panel evaluator, which
receives the panels' middles and half-widths and the nodes and widths of
their parts, and returns the parts' sums.  The integrals of this module use
the pointwise evaluator _eval_panels, which samples an integrand at every
node; the syntheses of the transforms pass one that contracts plane waves
panel by panel.  Panel geometry, acceptance, refinement and the stall rule
do not depend on the evaluator.  The starting panels span at most 48 rad
at freq_hint, with at least four of them, and a caller may add break
points as extra starting edges: the integrals of test functions break at
the barrier steps, next to which a narrow peak of H^l f can otherwise fall
between the nodes of a wide panel and of both its halves and be accepted
unseen.  A panel whose halves disagree with it by more than half of an
equal share of the target is replaced by its halves, whose values are
already known, so a split costs the 64 nodes of the new halves' halves.
The panel count is capped by max_subdivisions, and a refinement whose
error ratio has not halved while the panel count grew eightfold has
stalled at a noise floor and gives up early; both raise AccuracyError
carrying the best estimate.

The engine has two acceptance tests, one per kind of caller:

- An integral returns the sum over the halves and accepts when the sum of
  |panel - halves| over the panels is within max(abs_tol, rel_tol * |value|)
  for every component.  Summing magnitudes keeps noise from cancelling its
  way to acceptance: the order-16 seminorm of a width-1 packet next to the
  barrier carries evaluation noise near 3e-9 of its value, and accepting on
  |sum of differences| returned it at rel_tol 1e-10, 1.3e-9 away from the
  values that rel_tol 1e-8 and 1e-6 agree on.  Summed magnitudes stall
  there and raise.
- A spatial rule (transforms._build_rule) is the panels themselves, and it
  accepts when |sum of panel - halves| is within abs_tol, or rel_tol times
  the integrand's L1 norm when that is larger, at every probe kernel.  The
  probes are plane waves whose panel differences carry phase roundoff of
  either sign; summed magnitudes grow with the panel count, and never met
  the target of a battery packet's rule at abs_tol 1e-12.

All decisions are pure float comparisons on deterministically ordered
arrays, so repeated runs produce bit-identical results.

There is one entry point per measure: integrate_line over x and
integrate_energy over the spectrum.  An integrand receives a 1-d float64
array of n abscissae and returns either a matching 1-d array or an (n, B)
array, whose B columns are integrated component-wise over one shared panel
set.  The result has the shape the integrand gave: value and error are a
complex and a float for a 1-d integrand, (B,) arrays for an (n, B) one.
An empty interval (hi <= lo) integrates to QuadratureResult(0j, 0.0, 0)
without calling the integrand, whatever shape it would have returned.
integrate_line_batch and integrate_energy_batch are the same functions
under the names the batched integrals had, kept because the benchmark's
tracer wraps the package's integrals by those names.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_line",
    "integrate_line_batch",
    "integrate_energy",
    "integrate_energy_batch",
]

# Composite Gauss-Legendre panels: nodes and weights on [-1, 1], the
# phase one starting panel spans at freq_hint, and the fewest starting
# panels.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_PANEL_PHASE = 48.0
_MIN_PANELS = 4
# The layout of a panel's parts (the panel, its left half, its right half),
# each carrying the 32-point rule: their nodes on the panel's [-1, 1], one
# row per part, and their widths relative to the panel.  The first round
# evaluates every part; later rounds only the halves.
_PARTS_X = np.stack([_GL_X, 0.5 * (_GL_X - 1.0), 0.5 * (_GL_X + 1.0)])
_PART_WIDTH = np.array([1.0, 0.5, 0.5])
_GL_W_COLUMN = _GL_W.reshape(-1, 1)
# A refinement has stalled when the panel count has grown this many times
# since some round without the error ratio halving.
_STALL_GROWTH = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation limits shared by all integral routines.

    abs_tol / rel_tol bound the certified error by
    max(abs_tol, rel_tol * |value|).  spatial_radius truncates line
    integrals, k_max truncates energy integrals in the wave-number variable.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    spatial_radius: float = 40.0
    k_max: float = 40.0
    max_subdivisions: int = 4096

    def __post_init__(self):
        # nan and inf get past every comparison below, so they are refused
        # first; a comparison, unlike math.isfinite, accepts any int.
        for name, value in asdict(self).items():
            if not -math.inf < value < math.inf:
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.abs_tol <= 0.0 or self.rel_tol < 0.0:
            raise DomainError("abs_tol must be positive and rel_tol non-negative")
        if self.spatial_radius <= 0.0 or self.k_max <= 0.0:
            raise DomainError("truncation radii must be positive")
        if self.max_subdivisions < 8:
            raise DomainError("max_subdivisions must be at least 8")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "QuadratureSpec":
        unknown = set(data) - {"abs_tol", "rel_tol", "spatial_radius",
                               "k_max", "max_subdivisions"}
        if unknown:
            raise DomainError(f"unknown quadrature keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuadratureSpec":
        return cls.from_dict(json.loads(text))


class QuadratureResult(NamedTuple):
    """An integral, its certified error and the final panel count; value
    and error are (B,) arrays for an (n, B) integrand."""

    value: complex
    error: float
    panels: int


def _eval_panels(f, signed, mid, half, offsets, widths):
    """The pointwise panel evaluator: samples the integrand f at every node.

    Panels are given by their middles and half-widths, their parts by the
    engine's layout (see _adaptive).  Returns (sums, ncols): sums is
    (panels, parts, C), one column per batch component, followed in a
    signed run by each part's sum of |weight * integrand| per component;
    ncols is the batch width the integrand produced (0 for a scalar
    integrand).
    """
    nodes = mid[:, None, None] + half[:, None, None] * offsets
    fx = np.asarray(f(nodes.ravel()))
    if fx.ndim not in (1, 2):
        raise DomainError(f"integrand must return 1-d or (n, batch) arrays, got shape {fx.shape}")
    if fx.shape[0] != nodes.size:
        raise DomainError("integrand returned a result of the wrong length")
    ncols = fx.shape[1] if fx.ndim == 2 else 0
    fx = fx.reshape(nodes.shape + (max(ncols, 1),))
    if signed:
        fx = np.concatenate([fx, np.abs(fx)], axis=3)
    width = half[:, None] * widths
    # The weighted sum over the nodes of each part, as one matrix product.
    npan, nparts, npts, cols = fx.shape
    sums = np.dot(fx.transpose(0, 1, 3, 2).reshape(-1, npts), _GL_W_COLUMN)
    return sums.reshape(npan, nparts, cols) * width[:, :, None], ncols


def _adaptive(panels, lo, hi, spec, freq_hint, signed=False, breaks=()):
    """The adaptive engine (see module docstring).

    panels is the panel evaluator: panels(mid, half, offsets, widths)
    receives one round's panel middles and half-widths and the rows of
    _PARTS_X and _PART_WIDTH the round needs, and returns (sums, ncols), the
    integral of every part of every panel as (panels, parts, columns) and
    the batch width (see _eval_panels).  spec gives the tolerances and the
    panel cap, max_subdivisions.  signed selects the acceptance test of a
    spatial rule.  The break points inside (lo, hi) are added to the
    starting edges.  Returns (values (B,), errors (B,), a, b, ncols): the
    sums over the panels' halves, their error estimates, the final panels
    [a, b] in ascending order, and the batch width read off the first round.
    """
    abs_tol, rel_tol, max_panels = spec.abs_tol, spec.rel_tol, spec.max_subdivisions
    n0 = max(_MIN_PANELS, math.ceil((hi - lo) * freq_hint / _PANEL_PHASE))
    n0 = min(n0, max_panels // 2)
    # The values of np.linspace(lo, hi, n0 + 1), formed without its overhead.
    step = (hi - lo) / n0
    if step == 0.0:
        edges = np.linspace(lo, hi, n0 + 1)
    else:
        edges = np.arange(n0 + 1.0) * step + lo
        edges[-1] = hi
    inner = [x for x in breaks if lo < x < hi and x not in edges]
    if inner:
        edges = np.sort(np.concatenate([edges, inner]))
    a, b = edges[:-1], edges[1:]
    parts, ncols = panels(0.5 * (a + b), 0.5 * (b - a), _PARTS_X, _PART_WIDTH)
    nb = max(ncols, 1)
    history = []
    while True:
        vals = parts[:, :, :nb]
        total = vals[:, 1:].sum(axis=(0, 1))
        diff = vals[:, 0] - vals[:, 1:].sum(axis=1)
        if signed:
            tot_err = np.abs(diff.sum(axis=0))
            target = np.maximum(abs_tol,
                                rel_tol * parts[:, 0, nb:].real.sum(axis=0))
        else:
            tot_err = np.abs(diff).sum(axis=0)
            target = np.maximum(abs_tol, rel_tol * np.abs(total))
        if (tot_err <= target).all():
            if history:  # split panels were appended out of order
                order = np.argsort(a, kind="stable")
                a, b = a[order], b[order]
            return total, tot_err, a, b, ncols
        worst = float((tot_err / target).max())
        stalled = any(a.size >= _STALL_GROWTH * n and worst > 0.5 * w
                      for n, w in history)
        history.append((a.size, worst))
        # A panel blocks convergence when its difference exceeds half of an
        # equal share of the worst component's budget.
        ratio = (np.abs(diff) / target).max(axis=1)
        flag = ratio > 1.0 / (2.0 * a.size)
        if not flag.any():
            # No panel blocks on its own, yet the sum still misses the
            # target: split the worst offenders.
            flag[np.argsort(-ratio, kind="stable")[:max(1, a.size // 4)]] = True
        if stalled or a.size + int(flag.sum()) > max_panels:
            how = "stalled" if stalled else "failed to reach tolerance"
            raise AccuracyError(
                f"quadrature {how} with {a.size} panels "
                f"(error {float(tot_err.max()):.3e}, target {float(target.min()):.3e})",
                value=total if ncols else complex(total[0]),
                error=float(tot_err.max()))
        # The halves of a split panel become panels whose own values are
        # known; only their halves are new.
        mid = 0.5 * (a[flag] + b[flag])
        new_a = np.concatenate([a[flag], mid])
        new_b = np.concatenate([mid, b[flag]])
        new, _ = panels(0.5 * (new_a + new_b), 0.5 * (new_b - new_a),
                        _PARTS_X[1:], _PART_WIDTH[1:])
        known = np.concatenate([parts[flag, 1], parts[flag, 2]])
        parts = np.concatenate([parts[~flag],
                                np.concatenate([known[:, None], new], axis=1)])
        a = np.concatenate([a[~flag], new_a])
        b = np.concatenate([b[~flag], new_b])


def _run(f, lo, hi, spec, freq_hint, breaks=()):
    """Integrate f over [lo, hi] with the pointwise evaluator, with breaks
    as extra starting edges."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi <= lo:
        return QuadratureResult(0j, 0.0, 0)
    vals, errs, a, _, ncols = _adaptive(partial(_eval_panels, f, False), lo,
                                        hi, spec, freq_hint, breaks=breaks)
    if ncols:
        return QuadratureResult(vals, errs, a.size)
    return QuadratureResult(complex(vals[0]), float(errs[0]), a.size)


def integrate_line(f, spec: QuadratureSpec, lo: float | None = None, hi: float | None = None,
                   freq_hint: float = 0.0) -> QuadratureResult:
    """Integrate a complex integrand, 1-d or (n, B), over a spatial interval.

    The interval defaults to [-spatial_radius, +spatial_radius].  freq_hint
    is the fastest oscillation rate of the integrand in rad per unit length;
    it sets the initial panel density so the error estimator never sees an
    aliased view of the integrand.  The columns of an (n, B) integrand share
    one panel set, refined until every column meets the tolerance; a few
    hundred columns keep the working set in cache.
    """
    lo = -spec.spatial_radius if lo is None else lo
    hi = spec.spatial_radius if hi is None else hi
    return _run(f, lo, hi, spec, freq_hint)


def _k_limits(spec, hbar, mass, e_lo, e_hi):
    if e_lo < 0.0 or not math.isfinite(e_lo):
        raise DomainError(f"energy window must start at e_lo >= 0, got {e_lo}")
    k_lo = math.sqrt(2.0 * mass * e_lo) / hbar
    if e_hi is None or math.isinf(e_hi):
        k_hi = spec.k_max
    else:
        if e_hi < e_lo:
            raise DomainError("energy window must satisfy e_hi >= e_lo")
        k_hi = min(spec.k_max, math.sqrt(2.0 * mass * e_hi) / hbar)
    return k_lo, k_hi


def integrate_energy(g, spec: QuadratureSpec, hbar: float = 1.0, mass: float = 0.5,
                     e_lo: float = 0.0, e_hi: float | None = None,
                     freq_hint: float = 0.0) -> QuadratureResult:
    """Integrate g(E), 1-d or (n, B), over the continuous spectrum.

    The integral runs in the wave-number variable through E = (hbar k)^2/(2m),
    which absorbs the 1/sqrt(E) edge that spectral densities carry at the
    bottom of the spectrum; g itself is evaluated at E(k) > 0 only.  The
    window defaults to [0, E(k_max)]; a finite e_hi narrows it.  freq_hint is
    in rad per unit wave number.
    """
    k_lo, k_hi = _k_limits(spec, hbar, mass, e_lo, e_hi)
    jac = hbar * hbar / mass

    def integrand(k):
        e = (hbar * k) ** 2 / (2.0 * mass)
        ge = np.asarray(g(e))
        return ge * ((jac * k)[:, None] if ge.ndim == 2 else jac * k)

    return _run(integrand, k_lo, k_hi, spec, freq_hint)


integrate_line_batch = integrate_line
integrate_energy_batch = integrate_energy
