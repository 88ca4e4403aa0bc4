"""Pointwise evaluation of the generalized eigenfunctions.

Energy eigenfunctions come in two degenerate channels per energy (incidence
from the left or from the right) and two boundary-condition families: the
plus family carries incoming asymptotics, the minus family is its pointwise
complex conjugate.  Both are delta-normalized in energy through the
prefactor sqrt(m / (2 pi k hbar^2)).  Momentum eigenfunctions are the plane
waves e^{ipx/hbar} / sqrt(2 pi hbar).  Every plane wave in the package is
formed by scattering._cis, one cos and one sin per phase, in place of a
complex exp.  Sums of plane waves over the nodes of composite
Gauss-Legendre panels (the Fourier caches of the transforms and both
syntheses) go through _panel_waves, which forms the
waves of one panel from its middle's wave and one table per panel width
instead of one cos and one sin per (node, frequency).  The Gauss-Legendre
offsets are mirrored about 0 bit for bit, and _cis(-phi) is conj(_cis(phi))
bit for bit, so each table is formed on the distinct |offset| only and
conjugated where the offset is negative.  The position
eigenfunctions are delta distributions; they have no pointwise values and
act only inside integrals, so no evaluator for them exists here.

Outside the barrier every energy eigenfunction is A exp(ikx) + B exp(-ikx),
its weights (A, B) on each side read from the matching coefficients by one
table, _exterior_weights (de la Madrid, quant-ph/0502053):

    plus family      left of a      right of b
    channel LEFT     (1, r_l)       (t, 0)
    channel RIGHT    (0, t)         (r_r, 1)

and the minus family, the conjugate waves, has (conj B, conj A).  All energy
eigenfunction values come from one grid evaluator over (energies of one
matching solution) x (positions); scattering_wave is its one-energy view.
Inside the barrier it reads _interior_waves, which returns the values psi
and the slopes psi' of the plus family (the minus family conjugates both)
by two routes, each on its own rows: where |kappa| * width <= SMALL_PHASE
or the energy lies in the degenerate shell around the barrier top, the
transmitted wave at the far step carried inward by scattering._propagate;
the interface-scaled exponential basis everywhere else.  The transforms
read the same table, and (psi, psi') at the middle of each interior
sub-region.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BarrierModel
from .scattering import SMALL_PHASE, Channel, ScatteringSolution, SignLabel, \
    _cis, _cos_sinc, _propagate, _solve

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


def _plane_wave_norm(hbar: float) -> float:
    """1 / sqrt(2 pi hbar), the delta normalization of the plane waves."""
    return 1.0 / math.sqrt(2.0 * math.pi * hbar)


def _panel_waves(coef: np.ndarray, mid: np.ndarray, half: np.ndarray,
                 offsets: np.ndarray, freqs: np.ndarray,
                 origin: float = 0.0) -> np.ndarray:
    """Sum over t of coef[..., p, t] exp(i freq (x[..., p, t] - origin)).

    x = mid_p + half_p * offsets[..., t] are the nodes of panel p as float64
    forms them.  Each wave factors as exp(i freq (mid_p - origin)) times
    exp(i freq half_p offset_t): the second factor is one (offsets x
    frequencies) table per distinct half-width, shared by every panel of
    that width, formed on the distinct |offset_t| and conjugated where
    offset_t < 0, and the sum over t is a matrix product with it.  What the
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
    mags, back = np.unique(np.abs(offsets), return_inverse=True)
    back = back.reshape(offsets.shape)
    flip = (offsets < 0.0)[..., None]
    for i, h in enumerate(widths.tolist()):
        sel = group == i
        table = _cis((h * mags)[:, None] * freqs)[back]
        np.conj(table, out=table, where=flip)
        sums[..., sel, :] = pair[..., sel, :] @ table
    out = sums[0]
    out += 1j * freqs * sums[1]
    out *= _cis(np.outer(shift, freqs))
    return out


def _exterior_weights(sol: ScatteringSolution, sign: SignLabel):
    """The exterior table of the module docstring at the energies of sol.

    Returns (left of a, right of b), each mapping a channel to the weights
    (A, B) of A exp(ikx) + B exp(-ikx) in that channel's eigenfunction of
    the given sign family.
    """
    t, r_l, r_r = sol.t, sol.r_l, sol.r_r
    left = {Channel.LEFT: (1.0, r_l), Channel.RIGHT: (0.0, t)}
    right = {Channel.LEFT: (t, 0.0), Channel.RIGHT: (r_r, 1.0)}
    if sign is SignLabel.MINUS:
        return tuple({c: (np.conj(w_b), np.conj(w_a))
                      for c, (w_a, w_b) in side.items()}
                     for side in (left, right))
    return left, right


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
        # Thin or threshold barrier: functions of kappa^2 alone, exact
        # down to kappa = 0.
        if channel is Channel.LEFT:
            far, ik = model.b, 1j * k[prop, None]
        else:
            far, ik = model.a, -1j * k[prop, None]
        psi0 = sol.t[prop, None] * _cis(ik.imag * far)
        psi[prop], dpsi[prop] = _propagate(psi0, ik * psi0,
                                           sol.kappa_sq[prop, None],
                                           *_cos_sinc(kappa[prop], x - far))
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
    for cols, weights in zip((left, right), _exterior_weights(sol, sign)):
        # Each side forms exp(ikx) once; exp(-ikx) is its conjugate.
        wave = _cis(np.outer(k, x[cols]))
        w_a, w_b = (np.asarray(w)[..., None] for w in weights[channel])
        rows[:, cols] = w_a * wave + w_b * np.conj(wave)
    psi = _interior_waves(model, sol, channel, x[mid])[0]
    rows[:, mid] = np.conj(psi) if sign is SignLabel.MINUS else psi
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

