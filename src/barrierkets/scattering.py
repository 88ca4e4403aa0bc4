"""Transmission and reflection amplitudes of the rectangular barrier.

The solve matches left incidence only: it carries the unit transmitted
wave's boundary data (psi, psi') from b back to a with _propagate, by the
pair cos(kappa d) and d sinc(kappa d), both entire in kappa^2, so the
propagating, evanescent and threshold regimes share one code path.  The
barrier is symmetric about (a + b) / 2, and the mirror image x -> a + b - x
of the left-incidence wave is the right-incidence wave times e^{ik(a+b)}:
both channels share t, and r_r = r_l e^{-2ik(a+b)}.  The same propagator,
in _interior_waves, is the one route to every value inside the barrier:
the eigenfunctions of the eigenbasis module, the interior data of the
transforms, and the interior amplitudes a_l, b_l, a_r, b_r, which
ScatteringSolution forms on access.

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
# interior basis {e^{i kappa x}, e^{-i kappa x}} is treated as degenerate.
_DEGENERATE_RTOL = 1e-12


class Channel(Enum):
    """Incidence channel of a degenerate scattering energy."""

    LEFT = "left"
    RIGHT = "right"


class SignLabel(Enum):
    """Boundary-condition family: plus = incoming, minus = outgoing.

    The plus family solves the Lippmann-Schwinger equation
    u = u0 + G0(E + i0) V u, with u0 the channel's incident plane wave and
    G0(E + i0)(x, y) = -i m / (hbar^2 k) e^{ik|x-y|}; the minus family, its
    pointwise conjugate, solves u = conj(u0) + G0(E - i0) V u (Lippmann and
    Schwinger, Phys. Rev. 79 (1950) 469; de la Madrid, J. Phys. A 39 (2006)
    3949).
    """

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class ScatteringSolution:
    """Matching data of both incidence channels.

    solve_matching returns one energy with scalar fields; the array kernel
    behind it returns the same fields as arrays over its energies, and
    holds the model last.  t, r_l, r_r are the transmission and reflection
    amplitudes; right incidence is the mirror image of left incidence, so t
    serves both.  The properties a_l, b_l, a_r, b_r are the amplitudes of
    each channel's interior wave in the basis {e^{i kappa x}, e^{-i kappa x}},
    formed on access from _interior_waves: they are NaN inside the
    degenerate shell around the barrier top, where the basis ceases to
    exist, and raise ConditioningError where they overflow, as they do for
    an opaque barrier far from the origin.
    """

    energy: float
    k: float
    kappa: complex
    kappa_sq: float
    t: complex
    r_l: complex
    r_r: complex
    model: BarrierModel

    def _amplitude(self, channel: Channel, at_b: bool):
        """alpha = (psi + psi'/(i kappa)) / 2 at a lifted by e^{-i kappa a},
        or beta = (psi - psi'/(i kappa)) / 2 at b lifted by e^{i kappa b}."""
        model = self.model
        step, sign = (model.b, -1.0) if at_b else (model.a, 1.0)
        psi, dpsi = (v[..., 0] for v in
                     _interior_waves(self, channel, np.array([step])))
        degenerate = np.abs(np.asarray(self.energy) - model.v0) \
            <= _DEGENERATE_RTOL * max(1.0, model.v0)
        # Degenerate rows divide by a stand-in kappa and are overwritten by NaN.
        ikap = 1j * np.where(degenerate, 1.0, self.kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            v = 0.5 * (psi + sign * dpsi / ikap) * np.exp(-sign * ikap * step)
        if np.any(~np.isfinite(v) & ~degenerate):
            raise ConditioningError(
                "interior amplitudes overflow; scattering_wave stays finite")
        v = np.where(degenerate, complex(np.nan, np.nan), v)
        return v if np.ndim(v) else complex(v)

    @property
    def a_l(self):
        return self._amplitude(Channel.LEFT, False)

    @property
    def b_l(self):
        return self._amplitude(Channel.LEFT, True)

    @property
    def a_r(self):
        return self._amplitude(Channel.RIGHT, False)

    @property
    def b_r(self):
        return self._amplitude(Channel.RIGHT, True)


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


def _propagate(psi, dpsi, kappa, kappa_sq, dx):
    """(psi, psi') inside the barrier carried a distance dx, by the pair
    cos(kappa dx) and dx sinc(kappa dx), both entire in kappa^2."""
    z = kappa * dx
    cos, sinc = np.cos(z), dx * _sinc(z)
    return cos * psi + sinc * dpsi, cos * dpsi - kappa_sq * sinc * psi


def _interior_waves(sol: ScatteringSolution, channel: Channel, x: np.ndarray):
    """Plus-family values psi and slopes psi' of one channel at points x
    inside [a, b], each on a (energies of sol) x (positions) grid, without
    the prefactor: the transmitted wave at the far step (b for LEFT, a for
    RIGHT) carried inward by _propagate."""
    model = sol.model
    k = np.asarray(sol.k)[..., None]
    far, ik = (model.b, 1j * k) if channel is Channel.LEFT \
        else (model.a, -1j * k)
    psi0 = np.asarray(sol.t)[..., None] * _cis(ik.imag * far)
    return _propagate(psi0, ik * psi0, np.asarray(sol.kappa)[..., None],
                      np.asarray(sol.kappa_sq)[..., None], x - far)


def _check_matching(c_in, energies) -> None:
    bad = ~(np.isfinite(c_in) & (np.abs(c_in) > 1e-12))
    if bad.any():
        raise ConditioningError(
            f"matching system is singular at E={energies[bad][0]}")


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

    # Left incidence: unit transmitted wave at b, propagated back to a.
    ik = 1j * k
    eb = _cis(k * b)
    psi_a, dpsi_a = _propagate(eb, ik * eb, kappa, kappa_sq, -d)
    ea = _cis(k * a)
    c_in = 0.5 * (psi_a + dpsi_a / ik) / ea
    _check_matching(c_in, energies)
    c_ref = 0.5 * (psi_a - dpsi_a / ik) * ea
    # Right incidence is the mirror image x -> a + b - x of left incidence:
    # the same t, and r_r = r_l e^{-2ik(a+b)}, formed from the phases ea and
    # eb that r_l and the interior waves already carry.
    r_l = c_ref / c_in
    return ScatteringSolution(
        energy=energies, k=k, kappa=kappa, kappa_sq=kappa_sq, t=1.0 / c_in,
        r_l=r_l, r_r=r_l * np.conj(ea * eb) ** 2, model=model)


def solve_matching(model: BarrierModel, energy: float) -> ScatteringSolution:
    """Match plane waves across the barrier at energy E > 0."""
    sol = _solve(model, np.array([float(energy)]))
    return ScatteringSolution(*(getattr(sol, f.name)[0].item()
                                for f in fields(sol)[:-1]), model)


def s_matrix(model: BarrierModel, energy: float) -> np.ndarray:
    """The 2x2 scattering matrix [[T, R_r], [R_l, T]] at energy E."""
    sol = solve_matching(model, energy)
    return np.array([[sol.t, sol.r_r], [sol.r_l, sol.t]], dtype=complex)
