"""Pointwise evaluation of the generalized eigenfunctions.

Energy eigenfunctions come in two degenerate channels per energy (incidence
from the left or from the right) and two boundary-condition families: the
plus family carries incoming asymptotics, the minus family is its pointwise
complex conjugate.  Both are delta-normalized in energy through the
prefactor sqrt(m / (2 pi k hbar^2)).  Momentum eigenfunctions are the plane
waves e^{ipx/hbar} / sqrt(2 pi hbar).  Every plane wave in the package is
formed by _cis, one cos and one sin per phase.  Sums of plane waves over
the nodes of composite Gauss-Legendre panels (the Fourier caches of the
transforms and both syntheses) go through _panel_waves, which forms the
waves of one panel from its middle's wave and one table per panel width
instead of one cos and one sin per (node, frequency).  The position
eigenfunctions are delta distributions; they have no pointwise values and
act only inside integrals, so no evaluator for them exists here.

All energy eigenfunction values come from one grid evaluator over (energies
of one matching solution) x (positions); scattering_wave is its one-energy
view.  Inside the barrier it reads _interior_waves, which returns the values
psi and the slopes psi' of the plus family at interior points by two routes,
each on its own rows: the cos / d*sinc propagator where
|kappa| * width <= SMALL_PHASE or the energy lies in the degenerate shell
around the barrier top, and the interface-scaled exponential basis
everywhere else.  The energy analysis reads both at the middle of each
interior sub-region, the data that fixes the eigenfunction there.
"""

from __future__ import annotations

import numpy as np

from .model import BarrierModel
from .scattering import SMALL_PHASE, Channel, ScatteringSolution, SignLabel, \
    _sinc, _solve

__all__ = [
    "energy_prefactor",
]


def energy_prefactor(model: BarrierModel, k):
    """Delta-normalization prefactor sqrt(m / (2 pi k hbar^2)).

    Accepts a scalar or an array of wave numbers.
    """
    val = np.sqrt(model.mass / (2.0 * np.pi * np.asarray(k, dtype=float)
                                * model.hbar**2))
    if np.ndim(k) == 0:
        return float(val)
    return val


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real phase: one cos and one sin, no complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _panel_waves(coef: np.ndarray, mid: np.ndarray, half: np.ndarray,
                 offsets: np.ndarray, freqs: np.ndarray,
                 origin: float = 0.0) -> np.ndarray:
    """Sum over t of coef[..., p, t] exp(i freq (x[..., p, t] - origin)).

    x = mid_p + half_p * offsets[..., t] are the nodes of panel p as float64
    forms them.  Each wave factors as exp(i freq (mid_p - origin)) times
    exp(i freq half_p offset_t): the second factor is one (offsets x
    frequencies) table per distinct half-width, shared by every panel of
    that width, and the sum over t is a matrix product with it.  What the
    roundings of x and of mid_p - origin leave between the two (found
    exactly by Knuth's two-sum, a few ulps of x) enters to first order,
    exp(i freq d) = 1 + i freq d, as a second product with the same table.
    coef is (..., P, T), offsets (T,) or broadcastable against coef's
    leading axes as (..., T); returns (..., P, K) for K frequencies.
    """
    def rest(a, b, total):
        # (a + b) - total exactly, total the rounded sum (two-sum).
        b_part = total - a
        return (a - (total - b_part)) + (b - b_part)

    step = half[:, None] * offsets[..., None, :]
    shift = mid - origin
    resid = rest(mid, -origin, shift)[:, None] - rest(mid[:, None], step,
                                                     mid[:, None] + step)
    pair = np.stack(np.broadcast_arrays(coef, coef * resid))
    sums = np.empty(pair.shape[:-1] + (freqs.size,), dtype=complex)
    widths, group = np.unique(half, return_inverse=True)
    for i, h in enumerate(widths.tolist()):
        sel = group == i
        sums[..., sel, :] = pair[..., sel, :] @ _cis(
            (h * offsets)[..., None] * freqs)
    out = sums[0]
    out += 1j * freqs * sums[1]
    out *= _cis(np.outer(shift, freqs))
    return out


def _interior_waves(model: BarrierModel, sol: ScatteringSolution,
                    channel: Channel, x: np.ndarray):
    """Plus-family values psi and slopes psi' of one channel at points x
    inside [a, b], each on a (energies of sol) x (positions) grid, without
    the prefactor; see the module docstring for the two routes."""
    k = sol.k
    kappa = sol.kappa[:, None]
    psi = np.empty((k.size, x.size), dtype=complex)
    dpsi = np.empty_like(psi)
    prop = sol.degenerate | (np.abs(sol.kappa) * model.width <= SMALL_PHASE)
    expo = ~prop
    if expo.any():
        alpha, beta = sol.sc_l if channel is Channel.LEFT else sol.sc_r
        kx = kappa[expo]
        up = alpha[expo, None] * np.exp(1j * kx * (x - model.a))
        down = beta[expo, None] * np.exp(-1j * kx * (x - model.b))
        psi[expo] = up + down
        dpsi[expo] = 1j * kx * (up - down)
    if prop.any():
        # Thin or threshold barrier: propagate boundary data with functions
        # of kappa^2 alone, exact down to kappa = 0.
        ik = 1j * k[prop, None]
        if channel is Channel.LEFT:
            x0 = model.a
            r = sol.r_l[prop, None]
            e_p = np.exp(ik * x0)
            psi0 = e_p + r / e_p
            dpsi0 = ik * (e_p - r / e_p)
        else:
            x0 = model.b
            r = sol.r_r[prop, None]
            e_m = np.exp(-ik * x0)
            psi0 = e_m + r / e_m
            dpsi0 = -ik * e_m + ik * r / e_m
        dx = x - x0
        z = kappa[prop] * dx
        cos, sinc = np.cos(z), _sinc(z)
        psi[prop] = psi0 * cos + dpsi0 * dx * sinc
        dpsi[prop] = dpsi0 * cos - sol.kappa_sq[prop, None] * psi0 * dx * sinc
    return psi, dpsi


def _wave_grid(model: BarrierModel, sol: ScatteringSolution, channel: Channel,
               sign: SignLabel, x: np.ndarray,
               include_prefactor: bool = True) -> np.ndarray:
    """Eigenfunction values on a (energies of sol) x (positions) grid.

    Rows follow the energies of the matching solution sol, columns the
    positions x; see the module docstring for the two interior routes.
    """
    k = sol.k
    rows = np.empty((k.size, x.size), dtype=complex)
    left = x < model.a
    right = x > model.b
    mid = ~(left | right)
    # Each exterior side forms exp(ikx) once; exp(-ikx) is its conjugate.
    wave_l = _cis(np.outer(k, x[left]))
    wave_r = _cis(np.outer(k, x[right]))
    if channel is Channel.LEFT:
        rows[:, left] = wave_l + sol.r_l[:, None] * np.conj(wave_l)
        rows[:, right] = sol.t[:, None] * wave_r
    else:
        rows[:, right] = np.conj(wave_r) + sol.r_r[:, None] * wave_r
        rows[:, left] = sol.t[:, None] * np.conj(wave_l)
    rows[:, mid] = _interior_waves(model, sol, channel, x[mid])[0]
    if sign is SignLabel.MINUS:
        rows = np.conj(rows)
    if include_prefactor:
        rows = rows * energy_prefactor(model, k)[:, None]
    return rows


def scattering_wave(model: BarrierModel, energy: float, channel: Channel,
                    sign: SignLabel, x, include_prefactor: bool = True) -> np.ndarray:
    """Evaluate one generalized energy eigenfunction on an array of points."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    sol = _solve(model, np.array([float(energy)]))
    out = _wave_grid(model, sol, channel, sign, x_arr.ravel(),
                     include_prefactor)[0].reshape(x_arr.shape)
    if np.ndim(x) == 0:
        return out[0]
    return out

