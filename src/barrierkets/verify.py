"""Smeared verification of the formal bra/ket identities.

Every check restates a distributional identity as a finite-tolerance test
against smooth test functions: eigen-equations are moved onto amplitudes,
delta normalization becomes an analysis/synthesis round trip of a
concentrated probe, commutators are sandwiched between packets, and
membership claims become seminorm finiteness.  Nothing here evaluates a
distribution pointwise.

All checks return ResidualReport values that are bit-reproducible for a
fixed tolerance spec, since the quadrature layer is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as drep

import numpy as np

from .errors import DomainError
from .model import BarrierModel, Observable
from .quadrature import QuadratureSpec, _run, integrate_energy, integrate_line
from .scattering import Channel, SignLabel, _cis, _solve
from .eigenbasis import _plane_wave_norm, _wave_grid
from .testspace import (
    _SUPPORT_CUTOFF_LOG,
    GaussianPacket,
    TestFunction,
    _member,
    _support,
    _word_norm,
    _words,
    apply_observable,
    build_test_function,
    evaluate,
    inner_product,
    lincomb,
    seminorm,
    slow_decay_example,
)
from .transforms import energy_transform, momentum_transform

__all__ = [
    "ResidualReport",
    "default_battery",
    "check_eigen_equation",
    "check_eigenbra_conjugation",
    "check_delta_normalization",
    "check_commutators",
    "check_invariance_battery",
    "check_non_member",
    "SUITE_CHECK_NAMES",
    "run_default_suite",
]

# Probe support is cut where the Gaussian drops to the same relative level
# the test-function support logic uses.
_PROBE_SIGMA = math.sqrt(_SUPPORT_CUTOFF_LOG)
# Norm growth factor across a doubling of the truncation radius that flags
# an unbounded observable application.
_GROWTH_FLAG = 1.15


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one smeared identity check.

    witnesses pairs a human-readable input descriptor with its residual;
    passed is residual <= tolerance (false when the residual is NaN, which
    marks an inconclusive run, see `inconclusive`).
    """

    check_name: str
    residual: float
    tolerance: float
    witnesses: tuple
    passed: bool
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "residual": None if math.isnan(self.residual) else self.residual,
            "tolerance": self.tolerance,
            "witnesses": [[name, None if math.isnan(r) else r]
                          for name, r in self.witnesses],
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }


def _report(name: str, residual: float, tolerance: float,
            witnesses) -> ResidualReport:
    return ResidualReport(
        check_name=name,
        residual=residual,
        tolerance=tolerance,
        witnesses=tuple(witnesses),
        passed=bool(residual <= tolerance),
    )


def default_battery(model: BarrierModel) -> list:
    """Six packets spanning both sides of the barrier and both directions."""
    shapes = [
        GaussianPacket(center=-20.0, width=1.0, momentum=0.0),
        GaussianPacket(center=-20.0, width=1.0, momentum=3.0),
        GaussianPacket(center=-20.0, width=2.0, momentum=-3.0),
        GaussianPacket(center=21.0, width=1.0, momentum=0.0),
        GaussianPacket(center=21.0, width=1.0, momentum=-3.0),
        GaussianPacket(center=21.0, width=2.0, momentum=3.0),
    ]
    return [build_test_function(model, p) for p in shapes]


def _packet_label(i: int, f: TestFunction) -> str:
    if f.terms:
        p = f.terms[0].packet
        return f"packet[{i}] center={p.center:g} width={p.width:g}"
    return f"packet[{i}]"


def check_eigen_equation(model: BarrierModel, energy: float, channel: Channel,
                         sign: SignLabel, battery, spec: QuadratureSpec,
                         observable: Observable = Observable.H) -> ResidualReport:
    """Smeared eigenvalue equation of the chosen observable.

    For H: the amplitude of H f at (energy, channel) must equal energy times
    the amplitude of f.  For P the same statement runs through the
    plane-wave amplitudes, with `energy` read as the momentum.  For Q the
    position kernel is the identity route, with `energy` read as the
    position.  Residuals are normalized by (1 + |eigenvalue|) * norm(f).
    """
    if not battery:
        raise DomainError("eigen-equation checks need a non-empty battery")
    if observable is Observable.H and not energy > 0.0:
        raise DomainError("the spectrum of H is E > 0")
    witnesses = []
    worst = 0.0
    for i, f in enumerate(battery):
        if f.model != model:
            raise DomainError("battery member built over a different model")
        af = apply_observable(observable, f)
        if observable is Observable.H:
            lhs = energy_transform(af, sign, spec).amplitude(energy, channel)
            rhs = energy * energy_transform(f, sign, spec).amplitude(energy, channel)
        elif observable is Observable.P:
            lhs = momentum_transform(af, "analysis", spec).amplitude(energy)
            rhs = energy * momentum_transform(f, "analysis", spec).amplitude(energy)
        else:
            lhs = evaluate(af, energy)
            rhs = energy * evaluate(f, energy)
        raw = abs(lhs - rhs)
        nf = seminorm(f, 0, 0, 0, spec)
        resid = raw / ((1.0 + abs(energy)) * nf) if nf > 0.0 else raw
        witnesses.append((_packet_label(i, f), resid))
        worst = max(worst, resid)
    tol = 1e-6 if observable is Observable.H else 1e-8
    return _report(f"eigen_equation_{observable.name.lower()}", worst, tol,
                   witnesses)


def check_eigenbra_conjugation(model: BarrierModel, energy: float,
                               channel: Channel, sign: SignLabel, battery,
                               spec: QuadratureSpec) -> ResidualReport:
    """Left eigenvector statements: conjugation symmetry plus the smeared
    eigenbra equation.

    The bra action on f is the conjugate of the ket amplitude; the check
    computes the bra side by its own integral and compares, then repeats
    the eigen-equation on the bra side.
    """
    if not battery:
        raise DomainError("eigenbra checks need a non-empty battery")
    if not energy > 0.0:
        raise DomainError("the spectrum of H is E > 0")
    k = math.sqrt(2.0 * model.mass * energy) / model.hbar
    sol = _solve(model, np.array([float(energy)]))
    witnesses = []
    worst = 0.0
    for i, f in enumerate(battery):
        if f.model != model:
            raise DomainError("battery member built over a different model")
        amp = energy_transform(f, sign, spec).amplitude(energy, channel)
        lo, hi = _support(f, spec)

        def bra_integrand(x):
            rows = _wave_grid(model, sol, channel, sign, x)
            return np.conj(evaluate(f, x)) * rows[0]

        bra = _run(bra_integrand, lo, hi, spec, k + f.max_phase(),
                   (model.a, model.b)).value
        nf = seminorm(f, 0, 0, 0, spec)
        conj_resid = abs(bra - np.conj(amp))
        conj_resid = conj_resid / nf if nf > 0.0 else conj_resid
        haf = apply_observable(Observable.H, f)
        amp_h = energy_transform(haf, sign, spec).amplitude(energy, channel)
        eig_resid = abs(np.conj(amp_h) - energy * np.conj(amp))
        eig_resid = eig_resid / ((1.0 + energy) * nf) if nf > 0.0 else eig_resid
        label = _packet_label(i, f)
        witnesses.append((label + " conjugation", conj_resid))
        witnesses.append((label + " eigenbra", eig_resid))
        # The two statements carry different tolerances (the conjugation one
        # is structural), so the report's residual is the worst ratio of
        # each witness to its own budget, against a unit tolerance.
        worst = max(worst, conj_resid / 1e-12, eig_resid / 1e-6)
    return _report("eigenbra_conjugation", worst, 1.0, witnesses)


def _delta_energy(model: BarrierModel, sign: SignLabel, probe, channel: Channel,
                  spec: QuadratureSpec):
    center, width = probe
    e_lo = center - _PROBE_SIGMA * width
    e_hi = center + _PROBE_SIGMA * width
    if e_lo <= 0.0:
        raise DomainError(
            "delta-normalization probe reaches the bottom of the spectrum; "
            "keep its support inside E > 0")
    hbar, mass = model.hbar, model.mass
    k0 = math.sqrt(2.0 * mass * center) / hbar
    sigma_k = width / (2.0 * k0) * math.sqrt(2.0 * mass) / hbar
    # The synthesized packet spreads like the inverse of the probe's width
    # in k; size the window so the truncated tail sits far below tolerance.
    radius = max(spec.spatial_radius, 2.0 * _PROBE_SIGMA / sigma_k)
    ispec = drep(spec, abs_tol=spec.abs_tol / 100.0,
                 spatial_radius=radius)

    def amp_in(e):
        return np.exp(-(((e - center) / width) ** 2))

    def psi_rows(x):
        def g(e):
            return amp_in(e)[:, None] * _wave_grid(model, _solve(model, e),
                                                   channel, sign, x)

        vals, _, _ = integrate_energy(
            g, ispec, hbar=hbar, mass=mass, e_lo=e_lo, e_hi=e_hi,
            freq_hint=float(np.max(np.abs(x))) + 1.0)
        return vals

    grid = np.linspace(center - 2.0 * width, center + 2.0 * width, 11)
    sol = _solve(model, grid)
    other = Channel.RIGHT if channel is Channel.LEFT else Channel.LEFT

    def integrand(x):
        # One analysis of the synthesized wave: the injected channel's
        # columns, then the other channel's.
        rows = np.concatenate([_wave_grid(model, sol, ch, sign, x)
                               for ch in (channel, other)])
        return np.conj(rows).T * psi_rows(x)[:, None]

    vals, _, _ = integrate_line(integrand, ispec, lo=-radius, hi=radius,
                                freq_hint=float(sol.k.max()) + k0)
    same = np.abs(vals[:grid.size] - amp_in(grid))
    leak = np.abs(vals[grid.size:])
    return grid, same, leak


def _delta_momentum(model: BarrierModel, probe, spec: QuadratureSpec):
    center, width = probe
    hbar = model.hbar
    radius = max(spec.spatial_radius, 2.0 * _PROBE_SIGMA * hbar / width)
    ispec = drep(spec, abs_tol=spec.abs_tol / 100.0, spatial_radius=radius)
    p_lo = center - _PROBE_SIGMA * width
    p_hi = center + _PROBE_SIGMA * width
    scale = _plane_wave_norm(hbar)

    def amp_in(p):
        return np.exp(-(((p - center) / width) ** 2))

    def psi_rows(x):
        def g(p):
            return amp_in(p)[:, None] * _cis(np.outer(p, x) / hbar) * scale

        vals, _, _ = integrate_line(
            g, ispec, lo=p_lo, hi=p_hi,
            freq_hint=float(np.max(np.abs(x))) / hbar)
        return vals

    grid = np.linspace(center - 2.0 * width, center + 2.0 * width, 11)

    def integrand(x):
        kernel = _cis(-np.outer(x, grid) / hbar) * scale
        return kernel * psi_rows(x)[:, None]

    vals, _, _ = integrate_line(
        integrand, ispec, lo=-radius, hi=radius,
        freq_hint=(float(np.max(np.abs(grid))) + abs(center)) / hbar)
    return grid, np.abs(vals - amp_in(grid))


def check_delta_normalization(model: BarrierModel, sign: SignLabel, probe,
                              channel: Channel, spec: QuadratureSpec,
                              mode: str = "energy") -> ResidualReport:
    """Round-trip statement of continuum orthonormality.

    probe is (center, width) of a Gaussian amplitude concentrated inside the
    spectrum.  The probe is synthesized into a position wave and analyzed
    back; the output must reproduce the input amplitude in the injected
    channel and vanish in the other, which is the smeared form of both delta
    factors.  mode "momentum" runs the plane-wave analogue (no channels).
    """
    if mode == "energy":
        grid, same, leak = _delta_energy(model, sign, probe, channel, spec)
        tol = 1e-5
        residual = float(max(same.max(), leak.max()))
        witnesses = [
            (f"E={e:.3f} return", float(s)) for e, s in zip(grid, same)
        ] + [
            (f"E={e:.3f} leakage", float(v)) for e, v in zip(grid, leak)
        ]
        return _report("delta_normalization_energy", residual, tol, witnesses)
    if mode == "momentum":
        grid, diff = _delta_momentum(model, probe, spec)
        residual = float(diff.max())
        witnesses = [(f"p={p:.3f}", float(d)) for p, d in zip(grid, diff)]
        return _report("delta_normalization_momentum", residual, 1e-8, witnesses)
    raise DomainError(f"unknown delta-normalization mode {mode!r}")


def check_commutators(f: TestFunction, g: TestFunction,
                      spec: QuadratureSpec) -> ResidualReport:
    """Canonical commutators sandwiched between two test functions.

    Verifies (f,[Q,P]g) = i hbar (f,g), (f,[H,Q]g) = -(i hbar/m)(f,Pg) and
    (f,[H,P]g) = 0; the last holds because the windows force both functions
    and their derivatives to vanish exactly at the steps, which kills the
    boundary terms of the formal potential derivative.
    """
    if f.model != g.model:
        raise DomainError("cannot pair functions over different models")
    model = f.model
    hbar, mass = model.hbar, model.mass

    def comm(a: Observable, b: Observable) -> TestFunction:
        ab = apply_observable(a, apply_observable(b, g))
        ba = apply_observable(b, apply_observable(a, g))
        return lincomb(1.0, ab, -1.0, ba)

    qp = comm(Observable.Q, Observable.P)
    hq = comm(Observable.H, Observable.Q)
    hp = comm(Observable.H, Observable.P)
    fg = inner_product(f, g, spec)
    r1 = abs(inner_product(f, qp, spec) - 1j * hbar * fg)
    pg = inner_product(f, apply_observable(Observable.P, g), spec)
    r2 = abs(inner_product(f, hq, spec) + (1j * hbar / mass) * pg)
    r3 = abs(inner_product(f, hp, spec))
    nf, ng = seminorm(f, 0, 0, 0, spec), seminorm(g, 0, 0, 0, spec)
    scale = nf * ng
    if scale > 0.0:
        r1, r2, r3 = r1 / scale, r2 / scale, r3 / scale
    residual = max(r1, r2, r3)
    witnesses = [("[Q,P] canonical", r1), ("[H,Q] momentum", r2),
                 ("[H,P] boundary", r3)]
    return _report("commutators", residual, 1e-8, witnesses)


def check_invariance_battery(f: TestFunction, max_total_order: int,
                             spec: QuadratureSpec) -> ResidualReport:
    """Stability of the test space under all operator words.

    Every word in Q, P and H whose total order (H counts twice) stays
    within the bound must map f to a function of finite norm.  The norms
    come from f's derivative jet, as seminorms do, and no image is built:
    the words of one order start on the panels, and read the derivatives,
    that the seminorms of that order sample on f.
    """
    _member(f, "check_invariance_battery")
    if not 0 <= max_total_order <= f.order_cap:
        raise DomainError(f"requested order {max_total_order} is outside "
                          f"0 to the cap {f.order_cap}")
    largest = ("", 0.0)
    for order in range(max_total_order + 1):
        for word in _words(order):
            norm = _word_norm(f, word, spec)
            name = word or "identity"
            if not math.isfinite(norm):
                return _report("invariance_battery", 1.0, 0.5,
                               [(name, math.inf)])
            if norm >= largest[1]:
                largest = (name, norm)
    return _report("invariance_battery", 0.0, 0.5,
                   [(f"largest norm {largest[0]}", largest[1])])


def check_non_member(model: BarrierModel, spec: QuadratureSpec) -> ResidualReport:
    """The slow-decay counterexample stays outside the test space.

    1/(x+i) is square integrable, but multiplying by x leaves a function
    whose truncated norm grows without bound as the truncation radius
    doubles; the check flags exactly that growth, while the norm itself
    stays stable.
    """
    g = slow_decay_example(model)
    radii = [spec.spatial_radius, 2.0 * spec.spatial_radius,
             4.0 * spec.spatial_radius]
    norms_g = []
    norms_qg = []
    for r in radii:
        res_g = integrate_line(lambda x: np.abs(evaluate(g, x)) ** 2 + 0j,
                               spec, lo=-r, hi=r)
        res_qg = integrate_line(lambda x: np.abs(x * evaluate(g, x)) ** 2 + 0j,
                                spec, lo=-r, hi=r)
        norms_g.append(math.sqrt(res_g.value.real))
        norms_qg.append(math.sqrt(res_qg.value.real))
    growth = min(norms_qg[i + 1] / norms_qg[i] for i in range(2))
    stable = max(norms_g[i + 1] / norms_g[i] for i in range(2))
    flagged = growth > _GROWTH_FLAG and stable < _GROWTH_FLAG
    witnesses = [(f"|x g| norm at radius {r:g}", n)
                 for r, n in zip(radii, norms_qg)]
    witnesses += [(f"|g| norm at radius {r:g}", n)
                  for r, n in zip(radii, norms_g)]
    return _report("non_member_flagged", 0.0 if flagged else 1.0, 0.5,
                   witnesses)


# The default suite, in its order: each check's run on (model, spec, battery).
_SUITE = {
    "eigen_equation_h": lambda model, spec, battery: check_eigen_equation(
        model, 1.0, Channel.LEFT, SignLabel.PLUS, battery, spec,
        observable=Observable.H),
    "eigen_equation_p": lambda model, spec, battery: check_eigen_equation(
        model, 2.0, Channel.LEFT, SignLabel.PLUS, battery[:2], spec,
        observable=Observable.P),
    "eigenbra_conjugation": lambda model, spec, battery:
        check_eigenbra_conjugation(model, 1.0, Channel.LEFT, SignLabel.PLUS,
                                   battery[:3], spec),
    "delta_normalization_energy": lambda model, spec, battery:
        check_delta_normalization(model, SignLabel.PLUS, (5.0, 0.5),
                                  Channel.LEFT, spec, mode="energy"),
    "delta_normalization_momentum": lambda model, spec, battery:
        check_delta_normalization(model, SignLabel.PLUS, (2.0, 0.5),
                                  Channel.LEFT, spec, mode="momentum"),
    "commutators": lambda model, spec, battery: check_commutators(
        battery[0], battery[1], spec),
    "invariance_battery": lambda model, spec, battery:
        check_invariance_battery(battery[0], 4, spec),
    "non_member_flagged": lambda model, spec, battery: check_non_member(
        model, spec),
}
SUITE_CHECK_NAMES = tuple(_SUITE)


def run_default_suite(model: BarrierModel, spec: QuadratureSpec,
                      select=None, tolerance: float | None = None) -> list:
    """The default verification battery used by the command-line interface.

    select restricts the run to the named checks (order preserved, names
    from SUITE_CHECK_NAMES); tolerance replaces every report's pass
    threshold, which re-derives the passed flag but leaves inconclusive
    runs inconclusive.
    """
    names = SUITE_CHECK_NAMES if select is None else tuple(select)
    if not names:
        raise DomainError("suite selection is empty")
    for name in names:
        if name not in SUITE_CHECK_NAMES:
            raise DomainError(f"unknown check {name!r}; choose from "
                              + ", ".join(SUITE_CHECK_NAMES))
    battery = default_battery(model)
    reports = [_SUITE[name](model, spec, battery) for name in names]
    if tolerance is not None:
        reports = [
            drep(r, tolerance=tolerance,
                 passed=bool(r.residual <= tolerance) and not r.inconclusive)
            for r in reports
        ]
    return reports
