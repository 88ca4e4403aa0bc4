"""Transmission and reflection amplitudes of the rectangular barrier.

The solve carries boundary data (psi, psi') across the barrier with
_propagate, by the pair cos(kappa d) and d*sinc(kappa d), both entire in
kappa^2 and formed once for both incidences, so the propagating,
evanescent and threshold regimes share one code path.  The same
propagator is the one route by which eigenbasis evaluates every
eigenfunction value inside the barrier.  The public interior amplitudes
are additionally extracted in the interface-scaled basis
{exp(i kappa (x-a)), exp(-i kappa (x-b))}, whose members stay bounded
inside the barrier for Im kappa >= 0, where the textbook basis
{exp(+-i kappa x)} would overflow for an opaque barrier; no evaluator
reads them.

One kernel solves a whole array of energies at once and returns a
ScatteringSolution with array fields; it raises ConditioningError or
DomainError when any energy triggers them.  solve_matching and s_matrix are
its one-energy views.  Nothing is cached: callers that need many energies
pass them in one array.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConditioningError
from .model import BarrierModel, wave_numbers

__all__ = [
    "Channel",
    "SignLabel",
    "ScatteringSolution",
    "solve_matching",
    "s_matrix",
]

# Relative half-width of the energy shell around v0 inside which the
# exponential interior basis is treated as degenerate.
_DEGENERATE_RTOL = 1e-12


class Channel(Enum):
    """Incidence channel of a degenerate scattering energy."""

    LEFT = "left"
    RIGHT = "right"


class SignLabel(Enum):
    """Boundary-condition family: plus = incoming, minus = outgoing."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class ScatteringSolution:
    """Matching data of both incidence channels.

    solve_matching returns one energy with scalar fields; the array kernel
    behind it returns the same fields as arrays over its energies.  t, r_l,
    r_r are the transmission and reflection amplitudes.  sc_l / sc_r hold
    the interior amplitudes of each channel in the interface-scaled basis
    {e^{i kappa (x-a)}, e^{-i kappa (x-b)}}; _lift holds the exponents
    (-i kappa a, i kappa b) that carry them to the basis
    {e^{i kappa x}, e^{-i kappa x}}.  The properties a_l, b_l, a_r, b_r are
    the amplitudes in that basis, formed on access: they are NaN inside the
    degenerate shell around the barrier top, where the basis ceases to exist
    (eigenfunction values inside the barrier come from the propagator and
    read none of these fields), and raise ConditioningError where they
    overflow, as they do for an opaque barrier far from the origin.
    """

    energy: float
    k: float
    kappa: complex
    kappa_sq: float
    t: complex
    r_l: complex
    r_r: complex
    sc_l: tuple[complex, complex]
    sc_r: tuple[complex, complex]
    _lift: tuple[complex, complex]
    degenerate: bool

    def _unscaled(self, scaled, end: int):
        with np.errstate(over="ignore", invalid="ignore"):
            v = scaled * np.exp(self._lift[end])
        if np.any(~np.isfinite(v) & ~np.asarray(self.degenerate)):
            raise ConditioningError(
                "unscaled interior amplitudes overflow; use sc_l / sc_r")
        return v if np.ndim(v) else complex(v)

    @property
    def a_l(self):
        return self._unscaled(self.sc_l[0], 0)

    @property
    def b_l(self):
        return self._unscaled(self.sc_l[1], 1)

    @property
    def a_r(self):
        return self._unscaled(self.sc_r[0], 0)

    @property
    def b_r(self):
        return self._unscaled(self.sc_r[1], 1)


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real phase: one cos and one sin, no complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _sinc(z):
    """sin(z) / z on complex arrays, by its Taylor series near 0."""
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    z2 = z * z
    return np.where(small, 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0),
                    np.sin(safe) / safe)


def _cos_sinc(kappa, dx):
    """The pair cos(kappa dx) and dx sinc(kappa dx), both entire in kappa^2.

    kappa (-dx) is -(kappa dx) exactly, so the pair for -dx is
    (cos, -sinc) bit for bit.
    """
    z = kappa * dx
    return np.cos(z), dx * _sinc(z)


def _propagate(psi, dpsi, kappa_sq, cos, sinc):
    """(psi, psi') inside the barrier carried a distance dx, given the pair
    _cos_sinc(kappa, dx)."""
    return cos * psi + sinc * dpsi, cos * dpsi - kappa_sq * sinc * psi


def _check_matching(c_in, energies, side: str) -> None:
    bad = ~(np.isfinite(c_in) & (np.abs(c_in) > 1e-12))
    if bad.any():
        raise ConditioningError(
            f"{side} matching system is singular at E={energies[bad][0]}")


def _solve(model: BarrierModel, energies: np.ndarray) -> ScatteringSolution:
    """Matching data at every energy of a 1-D array, as array fields."""
    energies = np.asarray(energies, dtype=float)
    wn = wave_numbers(model, energies)
    k, kappa, kappa_sq = wn.k, wn.kappa, wn.kappa_sq
    a, b, d = model.a, model.b, model.width
    opacity = kappa.imag * d
    if np.any(opacity > 690.0):
        raise ConditioningError(
            f"barrier opacity |Im kappa|*width = {opacity.max():.1f} exceeds "
            "floating-point range")

    ik = 1j * k
    cos, sinc = _cos_sinc(kappa, d)

    # Left incidence: unit transmitted wave at b, propagated back to a.
    eb = _cis(k * b)
    psi_a, dpsi_a = _propagate(eb, ik * eb, kappa_sq, cos, -sinc)
    ea = _cis(k * a)
    c_in = 0.5 * (psi_a + dpsi_a / ik) / ea
    c_ref = 0.5 * (psi_a - dpsi_a / ik) * ea
    _check_matching(c_in, energies, "left")
    t = 1.0 / c_in
    r_l = c_ref / c_in

    # Right incidence: unit transmitted wave at a, propagated forward to b.
    ea_m = _cis(-k * a)
    psi_b2, dpsi_b2 = _propagate(ea_m, -ik * ea_m, kappa_sq, cos, sinc)
    c_in2 = 0.5 * (psi_b2 - dpsi_b2 / ik) * eb
    c_ref2 = 0.5 * (psi_b2 + dpsi_b2 / ik) / eb
    _check_matching(c_in2, energies, "right")
    t2 = 1.0 / c_in2
    r_r = c_ref2 / c_in2

    degenerate = np.abs(energies - model.v0) <= _DEGENERATE_RTOL * max(1.0, model.v0)
    # Degenerate rows divide by a stand-in kappa and are overwritten by NaN.
    kap = np.where(degenerate, 1.0, kappa)
    ikap = 1j * kap
    # Each scaled amplitude is read off at the interface where its basis
    # function is O(1): no growing exponentials enter.
    alpha_l = 0.5 * (psi_a + dpsi_a / ikap) * t
    beta_l = 0.5 * eb * (1.0 - k / kap) * t
    alpha_r = 0.5 * ea_m * (1.0 - k / kap) * t2
    beta_r = 0.5 * (psi_b2 - dpsi_b2 / ikap) * t2

    def interior(v):
        return np.where(degenerate, complex(np.nan, np.nan), v)

    return ScatteringSolution(
        energy=energies, k=k, kappa=kappa, kappa_sq=kappa_sq,
        t=t, r_l=r_l, r_r=r_r,
        sc_l=(interior(alpha_l), interior(beta_l)),
        sc_r=(interior(alpha_r), interior(beta_r)),
        _lift=(-ikap * a, ikap * b),
        degenerate=degenerate)


def solve_matching(model: BarrierModel, energy: float) -> ScatteringSolution:
    """Match plane waves across the barrier at energy E > 0."""
    sol = _solve(model, np.array([float(energy)]))

    def item(v):
        return tuple(item(p) for p in v) if isinstance(v, tuple) else v[0].item()

    return ScatteringSolution(**{f.name: item(getattr(sol, f.name))
                                 for f in fields(sol)})


def s_matrix(model: BarrierModel, energy: float) -> np.ndarray:
    """The 2x2 scattering matrix [[T, R_r], [R_l, T]] at energy E."""
    sol = solve_matching(model, energy)
    return np.array([[sol.t, sol.r_r], [sol.r_l, sol.t]], dtype=complex)
