"""Independent reference values for checking command-line output.

Plane-wave matching across a rectangular barrier by the textbook transfer
matrix, written with numpy alone, and the spectral amplitudes and window
probabilities obtained from it by dense Gauss-Legendre quadrature.  Nothing
here calls into the package, so a wrong number the package prints cannot
also appear on the reference side.
"""

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def gauss_legendre(breaks, panel_len):
    """Nodes and weights of a composite 16-point rule over sorted breaks."""
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        n = max(1, int(np.ceil((hi - lo) / panel_len)))
        edges = np.linspace(lo, hi, n + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs.append((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel())
        ws.append((half[:, None] * _GL_W[None, :]).ravel())
    return np.concatenate(xs), np.concatenate(ws)


class Barrier:
    """Rectangular barrier of height v0 on [a, b]."""

    def __init__(self, a=0.0, b=1.0, v0=2.0, hbar=1.0, mass=0.5):
        self.a, self.b, self.v0, self.hbar, self.mass = a, b, v0, hbar, mass

    def _numbers(self, energy):
        e = np.asarray(energy, dtype=float)
        k = np.sqrt(2.0 * self.mass * e) / self.hbar
        kappa = np.sqrt((2.0 * self.mass * (e - self.v0)).astype(complex)) / self.hbar
        return k, kappa

    def _transfer(self, kappa, dx):
        """cos and sin/kappa of kappa*dx: both entire in kappa^2."""
        z = kappa * dx
        return np.cos(z), dx * np.sinc(z / np.pi)

    def coefficients(self, energy):
        """(t, r_left, r_right) for each energy, by solving the 2x2 matching."""
        k, kappa = self._numbers(energy)
        d = self.b - self.a
        c, s = self._transfer(kappa, d)
        ik = 1j * k
        ea, eb = np.exp(ik * self.a), np.exp(ik * self.b)
        # Left incidence: psi(a) = ea + r/ea, psi'(a) = ik (ea - r/ea),
        # transferred to b where it must equal t eb and ik t eb.
        # Row 1: c psi(a) + s psi'(a) = t eb
        # Row 2: -kappa^2 s psi(a) + c psi'(a) = ik t eb
        kap2 = kappa * kappa
        m = np.empty(k.shape + (2, 2), dtype=complex)
        rhs = np.empty(k.shape + (2,), dtype=complex)
        m[..., 0, 0] = (c - ik * s) / ea
        m[..., 0, 1] = -eb
        m[..., 1, 0] = (-kap2 * s - ik * c) / ea
        m[..., 1, 1] = -ik * eb
        rhs[..., 0] = -(c + ik * s) * ea
        rhs[..., 1] = -(-kap2 * s + ik * c) * ea
        r_l, t = np.moveaxis(np.linalg.solve(m, rhs[..., None])[..., 0], -1, 0)
        # Right incidence mirrors the geometry: transfer from b back to a.
        em_a, em_b = np.exp(-ik * self.a), np.exp(-ik * self.b)
        cb, sb = self._transfer(kappa, -d)
        m[..., 0, 0] = (cb + ik * sb) / em_b
        m[..., 0, 1] = -em_a
        m[..., 1, 0] = (-kap2 * sb + ik * cb) / em_b
        m[..., 1, 1] = ik * em_a
        rhs[..., 0] = -(cb - ik * sb) * em_b
        rhs[..., 1] = -(-kap2 * sb - ik * cb) * em_b
        r_r, t2 = np.moveaxis(np.linalg.solve(m, rhs[..., None])[..., 0], -1, 0)
        return t, r_l, r_r, t2

    def wave(self, energy, channel, sign, x):
        """Delta-normalized eigenfunctions, one row per energy."""
        e = np.atleast_1d(np.asarray(energy, dtype=float))
        x = np.asarray(x, dtype=float)
        k, kappa = self._numbers(e)
        t, r_l, r_r, t2 = self.coefficients(e)
        k, kappa, t, r_l, r_r, t2 = (v[:, None]
                                     for v in (k, kappa, t, r_l, r_r, t2))
        ik = 1j * k
        out = np.empty((e.size, x.size), dtype=complex)
        left, right = x < self.a, x > self.b
        mid = ~(left | right)
        if channel == "left":
            out[:, left] = np.exp(ik * x[left]) + r_l * np.exp(-ik * x[left])
            out[:, right] = t * np.exp(ik * x[right])
            psi0 = np.exp(ik * self.a) + r_l * np.exp(-ik * self.a)
            dpsi0 = ik * (np.exp(ik * self.a) - r_l * np.exp(-ik * self.a))
        else:
            out[:, left] = t2 * np.exp(-ik * x[left])
            out[:, right] = np.exp(-ik * x[right]) + r_r * np.exp(ik * x[right])
            psi0 = t2 * np.exp(-ik * self.a)
            dpsi0 = -ik * t2 * np.exp(-ik * self.a)
        c, s = self._transfer(kappa, x[mid][None, :] - self.a)
        out[:, mid] = c * psi0 + s * dpsi0
        out *= np.sqrt(self.mass / (2.0 * np.pi * k * self.hbar ** 2))
        return np.conj(out) if sign == "minus" else out

    def amplitudes(self, energy, channel, sign, x, wfx):
        """<u|f> for each energy, with f sampled as wfx = weights * f(x)."""
        return np.conj(self.wave(energy, channel, sign, x)) @ wfx

    def window_probability(self, e_lo, e_hi, sign, x, wfx, norm_sq):
        """Share of |f|^2 in the energy window, summed over both channels."""
        k_lo = np.sqrt(2.0 * self.mass * e_lo) / self.hbar
        k_hi = np.sqrt(2.0 * self.mass * e_hi) / self.hbar
        ks, wk = gauss_legendre([k_lo, k_hi], 0.05)
        energies = (self.hbar * ks) ** 2 / (2.0 * self.mass)
        jac = self.hbar ** 2 * ks / self.mass
        total = 0.0
        for start in range(0, ks.size, 128):
            sl = slice(start, start + 128)
            for channel in ("left", "right"):
                amp = self.amplitudes(energies[sl], channel, sign, x, wfx)
                total += float(np.sum(wk[sl] * jac[sl] * np.abs(amp) ** 2))
        return total / norm_sq
