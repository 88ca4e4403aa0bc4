"""Model container: validation, serialization, wave numbers, potential."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barrierkets import BarrierModel, DomainError, GaussianPacket, \
    Observable, apply_observable, build_test_function, evaluate, lincomb, \
    wave_numbers


def test_defaults():
    m = BarrierModel()
    assert (m.a, m.b, m.v0) == (0.0, 1.0, 2.0)
    assert (m.hbar, m.mass) == (1.0, 0.5)
    assert m.width == 1.0


@pytest.mark.parametrize("kwargs", [
    {"a": 1.0, "b": 1.0},
    {"a": 2.0, "b": 1.0},
    {"v0": -1.0},
    {"hbar": 0.0},
    {"mass": -2.0},
    {"v0": math.inf},
    {"a": "x"},
    {"b": None},
    {"hbar": math.inf},
    {"mass": math.nan},
    {"b": 10 ** 400},
    {"v0": -10 ** 400},
])
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        BarrierModel(**kwargs)


def test_fields_are_held_as_floats():
    m = BarrierModel(a=-1, b=2, v0=3, hbar=1, mass=1)
    assert all(type(v) is float for v in m.to_dict().values())
    assert m == BarrierModel(a=-1.0, b=2.0, v0=3.0, hbar=1.0, mass=1.0)


def test_serialization_round_trip():
    m = BarrierModel(a=-0.5, b=2.5, v0=3.0, hbar=2.0, mass=1.0)
    assert BarrierModel.from_dict(m.to_dict()) == m
    assert BarrierModel.from_json(m.to_json()) == m


def test_from_dict_rejects_unknown_keys():
    data = BarrierModel().to_dict()
    data["extra"] = 1.0
    with pytest.raises(DomainError):
        BarrierModel.from_dict(data)


def test_potential_is_closed_on_the_barrier():
    # H f minus its kinetic part P P f / 2m is V f, with V = v0 on [a, b]
    # and 0 outside.  At the steps f and H f vanish to all orders, so the
    # closed convention there is seen only as Hf = 0.
    m = BarrierModel()
    f = build_test_function(m, GaussianPacket(center=0.5, width=1.0))
    pp = apply_observable(Observable.P, apply_observable(Observable.P, f))
    vf = lincomb(1.0, apply_observable(Observable.H, f),
                 -1.0 / (2.0 * m.mass), pp)
    x = np.array([-1.0, -0.05, 0.0, 0.05, 0.5, 0.95, 1.0, 1.05, 1.5])
    inside = (m.a <= x) & (x <= m.b)
    expect = np.where(inside, m.v0, 0.0) * evaluate(f, x)
    assert np.allclose(evaluate(vf, x), expect, rtol=1e-9, atol=1e-12)
    assert np.all(evaluate(f, np.array([m.a, m.b])) == 0.0)


def test_wave_numbers_regimes():
    m = BarrierModel()
    below = wave_numbers(m, 1.0)
    assert below.kappa_sq == pytest.approx(-1.0)
    assert below.kappa.real == pytest.approx(0.0)
    assert below.kappa.imag == pytest.approx(1.0)
    above = wave_numbers(m, 4.0)
    assert above.kappa.imag == 0.0
    assert above.kappa.real == pytest.approx(math.sqrt(2.0))
    top = wave_numbers(m, 2.0)
    assert abs(top.kappa) == 0.0


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_k_matches_dispersion(energy):
    m = BarrierModel()
    wn = wave_numbers(m, energy)
    # hbar = 1, m = 1/2 turns the dispersion into E = k^2.
    assert wn.k == pytest.approx(math.sqrt(energy), rel=1e-12)
    assert wn.kappa.imag >= 0.0


def test_wave_numbers_rejects_nonpositive_energy():
    m = BarrierModel()
    with pytest.raises(DomainError):
        wave_numbers(m, 0.0)
    with pytest.raises(DomainError):
        wave_numbers(m, -1.0)
