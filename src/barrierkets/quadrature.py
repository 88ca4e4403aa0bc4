"""Adaptive panel quadrature for complex-valued, vectorized integrands.

The core is a Gauss-Kronrod 7/15 rule applied to a worklist of panels, all
panels evaluated in one numpy call per round.  The error estimate of a panel
is |K15 - G7|; a panel is split when its estimate blocks the global target.
All decisions are pure float comparisons on deterministically ordered arrays,
so repeated runs produce bit-identical results.

Integrands receive a 1-d float64 array of abscissae and must return either a
matching 1-d array (scalar integrand) or a 2-d array with one row per
abscissa (batched integrand, integrated component-wise over a shared panel
set).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (positive half; the
# rule is symmetric).  Node 7 is the origin.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[7:8], _XGK_HALF[:7][::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[7:8], _WGK_HALF[:7][::-1]])
# Gauss nodes sit at the odd Kronrod positions.
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[3:4], _WG_HALF[:3][::-1]])


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


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    panels: int


def _initial_panel_count(lo: float, hi: float, freq_hint: float, max_panels: int) -> int:
    """Panels so that the integrand phase advances at most ~pi per panel."""
    n = 32
    if freq_hint > 0.0:
        n = max(n, int(math.ceil((hi - lo) * freq_hint / math.pi)))
    return min(n, max(32, max_panels // 2))


def _eval_panels(f, lo_edges, hi_edges):
    """Apply the 7/15 pair to each panel.

    Returns (values, errors, ncols): arrays with one row per panel and one
    column per batch component, and the batch width the integrand produced
    (0 for a scalar integrand).
    """
    half = 0.5 * (hi_edges - lo_edges)
    center = 0.5 * (hi_edges + lo_edges)
    nodes = center[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(nodes.ravel()))
    if fx.ndim not in (1, 2):
        raise DomainError(f"integrand must return 1-d or (n, batch) arrays, got shape {fx.shape}")
    if fx.shape[0] != nodes.size:
        raise DomainError("integrand returned a result of the wrong length")
    ncols = fx.shape[1] if fx.ndim == 2 else 0
    fx = fx.reshape(nodes.shape[0], 15, max(ncols, 1))
    k15 = half[:, None] * np.tensordot(fx, _WK, axes=([1], [0]))
    g7 = half[:, None] * np.tensordot(fx, _WG, axes=([1], [0]))
    return k15, np.abs(k15 - g7), ncols


def _probe_columns(f, lo, hi):
    """Number of batch columns the integrand produces (0 means scalar)."""
    probe = np.asarray(f(np.array([lo + 0.5 * (hi - lo)])))
    if probe.ndim == 1:
        return 0
    if probe.ndim == 2 and probe.shape[0] == 1:
        return probe.shape[1]
    raise DomainError(f"integrand must return 1-d or (n, batch) arrays, got shape {probe.shape}")


def _adaptive(f, lo, hi, abs_tol, rel_tol, max_panels, n0):
    """Shared adaptive loop.

    Returns (values (B,), errors (B,), n_panels, ncols).  The batch width
    is read off the first round of panel evaluations.
    """
    edges = np.linspace(lo, hi, n0 + 1)
    lo_e, hi_e = edges[:-1], edges[1:]
    vals, errs, ncols = _eval_panels(f, lo_e, hi_e)

    while True:
        total = vals.sum(axis=0)
        tot_err = errs.sum(axis=0)
        target = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(tot_err <= target):
            return total, tot_err, lo_e.size, ncols
        # A panel blocks convergence when its estimate exceeds an equal share
        # of the worst component's budget.
        ratio = (errs / target[None, :]).max(axis=1)
        flag = ratio > 1.0 / (2.0 * lo_e.size)
        n_new = int(flag.sum())
        if n_new == 0:
            # Estimates stalled below the per-panel threshold yet the sum
            # still misses the target: split the worst offenders.
            order = np.argsort(-ratio, kind="stable")
            flag = np.zeros_like(flag)
            flag[order[: max(1, lo_e.size // 4)]] = True
            n_new = int(flag.sum())
        if lo_e.size + n_new > max_panels:
            raise AccuracyError(
                f"quadrature failed to reach tolerance with {lo_e.size} panels "
                f"(error {float(tot_err.max()):.3e}, target {float(target.min()):.3e})",
                value=total if ncols else complex(total[0]),
                error=float(tot_err.max()),
            )
        mid = 0.5 * (lo_e[flag] + hi_e[flag])
        new_lo = np.concatenate([lo_e[~flag], lo_e[flag], mid])
        new_hi = np.concatenate([hi_e[~flag], mid, hi_e[flag]])
        new_vals, new_errs, _ = _eval_panels(f, np.concatenate([lo_e[flag], mid]),
                                             np.concatenate([mid, hi_e[flag]]))
        vals = np.concatenate([vals[~flag], new_vals], axis=0)
        errs = np.concatenate([errs[~flag], new_errs], axis=0)
        order = np.argsort(new_lo, kind="stable")
        lo_e, hi_e = new_lo[order], new_hi[order]
        vals, errs = vals[order], errs[order]


def _run(f, lo, hi, spec, freq_hint):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi <= lo:
        return np.zeros(1, dtype=complex), np.zeros(1), 0, 0
    n0 = _initial_panel_count(lo, hi, freq_hint, spec.max_subdivisions)
    return _adaptive(f, lo, hi, spec.abs_tol, spec.rel_tol, spec.max_subdivisions, n0)


def integrate_line(f, spec: QuadratureSpec, lo: float | None = None, hi: float | None = None,
                   freq_hint: float = 0.0) -> QuadratureResult:
    """Integrate a scalar complex integrand over a spatial interval.

    The interval defaults to [-spatial_radius, +spatial_radius].  freq_hint
    is the fastest oscillation rate of the integrand in rad per unit length;
    it sets the initial panel density so the error estimator never sees an
    aliased view of the integrand.
    """
    lo = -spec.spatial_radius if lo is None else lo
    hi = spec.spatial_radius if hi is None else hi
    vals, errs, panels, ncols = _run(f, lo, hi, spec, freq_hint)
    if ncols:
        raise DomainError("integrate_line expects a scalar integrand; use the batch variant")
    return QuadratureResult(value=complex(vals[0]), error=float(errs[0]), panels=panels)


def integrate_line_batch(f, spec: QuadratureSpec, lo: float | None = None,
                         hi: float | None = None, freq_hint: float = 0.0):
    """Batched companion of integrate_line.

    The integrand maps n abscissae to an (n, B) array; all components share
    one panel set, refined until every component meets the tolerance.
    Returns (values (B,), errors (B,), panels).  Batch width is the caller's
    concern; a few hundred columns keeps the working set in cache.
    """
    lo = -spec.spatial_radius if lo is None else lo
    hi = spec.spatial_radius if hi is None else hi
    if hi <= lo:
        b = max(_probe_columns(f, lo, hi), 1)
        return np.zeros(b, dtype=complex), np.zeros(b), 0
    vals, errs, panels, ncols = _run(f, lo, hi, spec, freq_hint)
    if not ncols and panels:
        raise DomainError("integrate_line_batch expects a batched integrand")
    return vals, errs, panels


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
    """Integrate g(E) over the continuous spectrum.

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
        return np.asarray(g(e)) * (jac * k)

    vals, errs, panels, ncols = _run(integrand, k_lo, k_hi, spec, freq_hint)
    if ncols:
        raise DomainError("integrate_energy expects a scalar integrand; use the batch variant")
    return QuadratureResult(value=complex(vals[0]), error=float(errs[0]), panels=panels)


def integrate_energy_batch(g, spec: QuadratureSpec, hbar: float = 1.0, mass: float = 0.5,
                           e_lo: float = 0.0, e_hi: float | None = None,
                           freq_hint: float = 0.0):
    """Batched companion of integrate_energy; g maps E-nodes to (n, B)."""
    k_lo, k_hi = _k_limits(spec, hbar, mass, e_lo, e_hi)
    jac = hbar * hbar / mass

    def integrand(k):
        e = (hbar * k) ** 2 / (2.0 * mass)
        return np.asarray(g(e)) * (jac * k)[:, None]

    if k_hi <= k_lo:
        b = max(_probe_columns(integrand, k_lo, k_hi), 1)
        return np.zeros(b, dtype=complex), np.zeros(b), 0
    vals, errs, panels, ncols = _run(integrand, k_lo, k_hi, spec, freq_hint)
    if not ncols and panels:
        raise DomainError("integrate_energy_batch expects a batched integrand")
    return vals, errs, panels
