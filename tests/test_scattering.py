"""Matching solutions: spot values, unitarity, reciprocity, conditioning."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barrierkets import (
    BarrierModel,
    Channel,
    ConditioningError,
    DomainError,
    SignLabel,
    s_matrix,
    scattering_wave,
    solve_matching,
)
from barrierkets.scattering import _interior_waves, _solve
from oracles import mp_matching, rk4_scattering

# |T|^2 at E = 1 for the default barrier: 1 / (1 + sinh^2 1)
TUNNEL_T2 = 0.41997434161402606939
TANH_1 = 0.76159415595576488812
RESONANCE_E = 11.869604401089358619


def test_tunneling_spot_value():
    sol = solve_matching(BarrierModel(), 1.0)
    assert abs(sol.t) ** 2 == pytest.approx(TUNNEL_T2, abs=1e-12)
    # At E = 1 with a = 0 the left reflection is exactly -i tanh(1).
    assert sol.r_l.real == pytest.approx(0.0, abs=1e-14)
    assert sol.r_l.imag == pytest.approx(-TANH_1, abs=1e-12)


def test_resonance_is_transparent():
    sol = solve_matching(BarrierModel(), RESONANCE_E)
    assert abs(sol.t) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.r_l) < 1e-12
    assert abs(sol.r_r) < 1e-12


def test_free_barrier_is_transparent():
    m = BarrierModel(v0=0.0)
    for energy in (0.3, 1.0, 7.0):
        sol = solve_matching(m, energy)
        assert abs(sol.t) ** 2 == pytest.approx(1.0, abs=1e-13)
        assert abs(sol.r_l) < 1e-13


def test_matches_rk4_oracle():
    m = BarrierModel()
    grid = np.linspace(0.05, 60.0, 23)
    orc = rk4_scattering(m, grid)
    for i, energy in enumerate(grid):
        sol = solve_matching(m, float(energy))
        for name in ("t", "r_l", "r_r", "a_l", "b_l", "a_r", "b_r"):
            lib = getattr(sol, name)
            ref = orc[name][i]
            assert abs(lib - ref) <= 1e-9 * max(abs(lib), 1e-12), \
                f"{name} at E={energy}"


def test_interior_matches_exterior_at_steps():
    # Continuity at both steps ties the interior basis amplitudes to the
    # exterior plane waves without going through the oracle.
    m = BarrierModel()
    for energy in (0.5, 1.7, 2.6, 30.0):
        sol = solve_matching(m, energy)
        ik, ikap = 1j * sol.k, 1j * sol.kappa
        for channel in (Channel.LEFT, Channel.RIGHT):
            if channel is Channel.LEFT:
                aa, bb = sol.a_l, sol.b_l
                out_a = cmath.exp(ik * m.a) + sol.r_l * cmath.exp(-ik * m.a)
                out_b = sol.t * cmath.exp(ik * m.b)
            else:
                aa, bb = sol.a_r, sol.b_r
                out_a = sol.t * cmath.exp(-ik * m.a)
                out_b = cmath.exp(-ik * m.b) + sol.r_r * cmath.exp(ik * m.b)
            in_a = aa * cmath.exp(ikap * m.a) + bb * cmath.exp(-ikap * m.a)
            in_b = aa * cmath.exp(ikap * m.b) + bb * cmath.exp(-ikap * m.b)
            assert abs(in_a - out_a) < 1e-10 * max(1.0, abs(out_a))
            assert abs(in_b - out_b) < 1e-10 * max(1.0, abs(out_b))


# The defaults, thin, wide, off-origin and non-unit (hbar, mass) barriers,
# and one far from the origin, where the mirror phase e^{-2ik(a+b)} is
# largest.
MIRROR_MODELS = [
    BarrierModel(),
    BarrierModel(a=-0.3, b=0.9, v0=5.0),
    BarrierModel(a=1.0, b=1.5, v0=0.7, hbar=0.8, mass=1.3),
    BarrierModel(a=0.0, b=5.0, v0=2.0),
    BarrierModel(a=2.0, b=2.25, v0=40.0, hbar=1.3, mass=0.8),
    BarrierModel(a=-30.0, b=-29.0, v0=3.0),
]


@pytest.mark.parametrize("model", MIRROR_MODELS)
def test_right_incidence_is_the_mirror_image(model):
    # The solve propagates left incidence only; t and r_r of the right
    # channel come from the mirror image about (a + b) / 2.  Each is held
    # against its own channel's matching at 40 digits.
    v0 = model.v0
    energies = np.concatenate([np.logspace(-3.0, math.log10(3e3), 14),
                               [v0, v0 * (1.0 - 1e-3), v0 * (1.0 + 1e-3)]])
    sol = _solve(model, energies)
    for i, energy in enumerate(energies):
        ref = mp_matching(model, float(energy))
        for name, got in (("t", sol.t[i]), ("t_right", sol.t[i]),
                          ("r_l", sol.r_l[i]), ("r_r", sol.r_r[i])):
            assert abs(got - ref[name]) <= 1e-13, f"{name} at E={energy!r}"


def test_s_matrix_layout_and_reciprocity():
    sol = solve_matching(BarrierModel(), 3.0)
    s = s_matrix(BarrierModel(), 3.0)
    assert s[0, 0] == s[1, 1] == sol.t
    assert s[1, 0] == sol.r_l
    assert s[0, 1] == sol.r_r


@given(st.floats(min_value=-3.0, max_value=4.0))
def test_unitarity(log10_e):
    energy = 10.0 ** log10_e
    s = s_matrix(BarrierModel(), energy)
    defect = np.max(np.abs(s.conj().T @ s - np.eye(2)))
    assert defect < 1e-10


def test_flux_conservation_spot():
    sol = solve_matching(BarrierModel(), 1.3)
    assert abs(sol.t) ** 2 + abs(sol.r_l) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.t) ** 2 + abs(sol.r_r) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_continuity_through_barrier_top():
    m = BarrierModel()
    top = solve_matching(m, 2.0)
    t_top = top.t
    assert cmath.isnan(top.a_l)
    for eps in (1e-7, -1e-7):
        t_near = solve_matching(m, 2.0 + eps).t
        assert abs(t_near - t_top) < 1e-6


def test_degenerate_interior_is_flagged():
    sol = solve_matching(BarrierModel(), 2.0)
    off = solve_matching(BarrierModel(), 2.1)
    for name in ("a_l", "b_l", "a_r", "b_r"):
        assert math.isnan(getattr(sol, name).real)
        assert cmath.isfinite(getattr(off, name))


def test_opaque_barrier_raises():
    m = BarrierModel(v0=1e7)
    with pytest.raises(ConditioningError):
        solve_matching(m, 1e-4)


def test_rejects_nonpositive_energy():
    with pytest.raises(DomainError):
        solve_matching(BarrierModel(), 0.0)


def test_sign_labels_exist():
    assert SignLabel.PLUS.value == "plus"
    assert SignLabel.MINUS.value == "minus"
    assert Channel.LEFT.value == "left"
    assert Channel.RIGHT.value == "right"


def test_unscaled_interior_overflow_raises():
    # |a| Im kappa is about 1400 here: the unscaled amplitude a_l would be
    # e^1400 times O(1).  Everything else stays finite, and the suite turns
    # any RuntimeWarning into an error.
    m = BarrierModel(a=10.0, b=11.0, v0=1e4)
    sol = solve_matching(m, 1.0)
    assert abs(sol.t) ** 2 + abs(sol.r_l) ** 2 == pytest.approx(1.0, abs=1e-12)
    steps = np.array([m.a, m.b])
    for channel in Channel:
        assert np.all(np.isfinite(_interior_waves(sol, channel, steps)))
    for name in ("a_l", "a_r"):
        with pytest.raises(ConditioningError):
            getattr(sol, name)
    assert cmath.isfinite(sol.b_l) and cmath.isfinite(sol.b_r)
    x = np.linspace(9.0, 12.0, 31)
    for channel in Channel:
        assert np.all(np.isfinite(scattering_wave(m, 1.0, channel,
                                                  SignLabel.PLUS, x)))
