"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own algorithms: scattering
coefficients come from fixed-step RK4 integration of the stationary equation
across the interior, derivatives come from high-precision mpmath
differentiation of a closed-form packet expression, and integrals come from
scipy.integrate.quad.  Agreement between these and the library is evidence,
not circularity.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from barrierkets import BarrierModel, GaussianPacket


def rk4_scattering(model: BarrierModel, energies, steps: int = 6000) -> dict:
    """Scattering coefficients by RK4 integration of psi'' = -kappa^2 psi.

    The interior is crossed with a fixed-step classical Runge-Kutta scheme,
    vectorized over the energy grid; exterior plane-wave decomposition is
    plain linear algebra on the propagated boundary data.  Returns arrays
    keyed t, r_l, r_r, a_l, b_l, a_r, b_r.
    """
    e_arr = np.asarray(energies, dtype=float)
    hbar, mass = model.hbar, model.mass
    a, b, d = model.a, model.b, model.width
    k = np.sqrt(2.0 * mass * e_arr) / hbar
    kappa_sq = (2.0 * mass * (e_arr - model.v0) / hbar**2).astype(complex)
    kappa = np.sqrt(kappa_sq)
    kappa = np.where(kappa.imag < 0.0, -kappa, kappa)
    ik = 1j * k
    ikap = 1j * kappa

    def sweep(psi0, dpsi0, x0, x1):
        h = (x1 - x0) / steps
        psi, dpsi = psi0.astype(complex), dpsi0.astype(complex)
        for _ in range(steps):
            k1p, k1d = dpsi, -kappa_sq * psi
            k2p = dpsi + 0.5 * h * k1d
            k2d = -kappa_sq * (psi + 0.5 * h * k1p)
            k3p = dpsi + 0.5 * h * k2d
            k3d = -kappa_sq * (psi + 0.5 * h * k2p)
            k4p = dpsi + h * k3d
            k4d = -kappa_sq * (psi + h * k3p)
            psi = psi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            dpsi = dpsi + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        return psi, dpsi

    # Left incidence: unit transmitted wave at b, integrated back to a.
    eb = np.exp(ik * b)
    psi_a, dpsi_a = sweep(eb, ik * eb, b, a)
    c_in = 0.5 * (psi_a + dpsi_a / ik) * np.exp(-ik * a)
    c_ref = 0.5 * (psi_a - dpsi_a / ik) * np.exp(ik * a)
    t = 1.0 / c_in
    r_l = c_ref / c_in
    a_l = 0.5 * (psi_a + dpsi_a / ikap) * np.exp(-ikap * a) * t
    b_l = 0.5 * (psi_a - dpsi_a / ikap) * np.exp(ikap * a) * t

    # Right incidence: unit transmitted wave at a, integrated forward to b.
    ea = np.exp(-ik * a)
    psi_b, dpsi_b = sweep(ea, -ik * ea, a, b)
    c_in2 = 0.5 * (psi_b - dpsi_b / ik) * np.exp(ik * b)
    c_ref2 = 0.5 * (psi_b + dpsi_b / ik) * np.exp(-ik * b)
    t_r = 1.0 / c_in2
    r_r = c_ref2 / c_in2
    a_r = 0.5 * (psi_b + dpsi_b / ikap) * np.exp(-ikap * b) * t_r
    b_r = 0.5 * (psi_b - dpsi_b / ikap) * np.exp(ikap * b) * t_r

    return {"t": t, "r_l": r_l, "r_r": r_r,
            "a_l": a_l, "b_l": b_l, "a_r": a_r, "b_r": b_r,
            "t_right": t_r}


def packet_expression(model: BarrierModel, packet: GaussianPacket):
    """Closed-form windowed packet as an mpmath-evaluable callable."""
    s = mpmath.mpf("0.1") * (mpmath.mpf(repr(model.b)) - mpmath.mpf(repr(model.a)))
    a = mpmath.mpf(repr(model.a))
    b = mpmath.mpf(repr(model.b))
    c = mpmath.mpf(repr(packet.center))
    w = mpmath.mpf(repr(packet.width))
    p = mpmath.mpf(repr(packet.momentum)) / mpmath.mpf(repr(model.hbar))
    deg = packet.poly_degree

    def g(x):
        x = mpmath.mpf(x) if not isinstance(x, mpmath.mpf) else x
        if x == a or x == b:
            return mpmath.mpc(0)
        win = mpmath.e ** (-(s / (x - a)) ** 2) * mpmath.e ** (-(s / (x - b)) ** 2)
        env = mpmath.e ** (-(((x - c) / w) ** 2))
        return (x - c) ** deg * env * win * mpmath.e ** (1j * p * x)

    return g


def mp_derivative(g, x: float, order: int, dps: int = 50) -> complex:
    """High-precision derivative of an mpmath callable at a point."""
    with mpmath.workdps(dps):
        val = mpmath.diff(g, mpmath.mpf(repr(x)), order)
        return complex(val)


_SERIES: dict = {}


def mp_word(model: BarrierModel, packet: GaussianPacket, word: str,
            x0: float, dps: int = 50) -> complex:
    """A word in Q, P, H and D (d/dx), its last letter acting first,
    applied to the windowed packet, at x0 off the steps.

    The packet's Taylor series at x0 comes from mpmath.taylor of
    packet_expression; the letters act on it as truncated-series
    arithmetic at dps digits: Q multiplies by x0 + t, D shifts the series,
    P is -i hbar D and H is -hbar^2/2m D^2 + V(x0).  The series is kept per
    (model, packet, x0, dps), so further words at x0 reuse it.
    """
    x0 = float(x0)
    order = len(word) - word.count("Q") + word.count("H")
    key = (model, packet, x0, dps)
    with mpmath.workdps(dps):
        series = _SERIES.get(key)
        if series is None or len(series) <= order:
            series = _SERIES[key] = mpmath.taylor(
                packet_expression(model, packet), mpmath.mpf(repr(x0)),
                order, chop=False)
        x = mpmath.mpf(repr(x0))
        hbar = mpmath.mpf(repr(model.hbar))
        kinetic = -hbar ** 2 / (2 * mpmath.mpf(repr(model.mass)))
        v = mpmath.mpf(repr(model.v0)) if model.a <= x0 <= model.b else 0
        c = list(series[:order + 1])
        for letter in reversed(word):
            if letter == "Q":
                c = [x * c[0]] + [x * c[k] + c[k - 1]
                                  for k in range(1, len(c))]
            elif letter in "DP":
                c = [(k + 1) * c[k + 1] for k in range(len(c) - 1)]
                if letter == "P":
                    c = [-1j * hbar * e for e in c]
            else:
                c = [kinetic * (k + 1) * (k + 2) * c[k + 2] + v * c[k]
                     for k in range(len(c) - 2)]
        return complex(c[0])


def quad_complex(func, lo: float, hi: float, **kw) -> complex:
    """scipy.integrate.quad applied to the real and imaginary parts."""
    kw.setdefault("limit", 400)
    re, _ = quad(lambda x: func(x).real, lo, hi, **kw)
    im, _ = quad(lambda x: func(x).imag, lo, hi, **kw)
    return re + 1j * im


def fd_derivative(func, x: float, order: int, h: float = 1e-3) -> complex:
    """Richardson-extrapolated central difference, orders 1 and 2 only."""
    def central(step):
        if order == 1:
            return (func(x + step) - func(x - step)) / (2.0 * step)
        if order == 2:
            return (func(x + step) - 2.0 * func(x) + func(x - step)) / step**2
        raise ValueError("fd_derivative supports orders 1 and 2")

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def hermite_gauss_norm_sq(width: float, degree: int) -> float:
    """Closed form of integral |x^degree e^{-(x/w)^2}|^2 dx over the line."""
    n = 2 * degree
    return math.gamma((n + 1) / 2.0) * (width / math.sqrt(2.0)) ** (n + 1)
