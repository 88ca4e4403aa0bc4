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
from oracles import rk4_scattering

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
    t_top = solve_matching(m, 2.0).t
    assert solve_matching(m, 2.0).degenerate
    for eps in (1e-7, -1e-7):
        t_near = solve_matching(m, 2.0 + eps).t
        assert abs(t_near - t_top) < 1e-6


def test_degenerate_interior_is_flagged():
    sol = solve_matching(BarrierModel(), 2.0)
    assert sol.degenerate
    assert math.isnan(sol.a_l.real)
    assert math.isnan(sol.b_r.real)
    off = solve_matching(BarrierModel(), 2.1)
    assert not off.degenerate
    assert cmath.isfinite(off.a_l)


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
    assert all(cmath.isfinite(v) for v in sol.sc_l + sol.sc_r)
    for name in ("a_l", "a_r"):
        with pytest.raises(ConditioningError):
            getattr(sol, name)
    assert cmath.isfinite(sol.b_l) and cmath.isfinite(sol.b_r)
    x = np.linspace(9.0, 12.0, 31)
    for channel in Channel:
        assert np.all(np.isfinite(scattering_wave(m, 1.0, channel,
                                                  SignLabel.PLUS, x)))
