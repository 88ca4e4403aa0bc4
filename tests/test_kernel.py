"""The array matching kernel and grid evaluator against their scalar views."""

import dataclasses
import warnings

import numpy as np
import pytest

from barrierkets import (
    BarrierModel,
    Channel,
    ConditioningError,
    ScatteringSolution,
    SignLabel,
    scattering_wave,
    solve_matching,
)
from barrierkets.eigenbasis import _exterior_weights, _wave_grid
from barrierkets.scattering import _interior_waves, _solve
from oracles import mp_interior_waves

MODELS = [
    BarrierModel(),
    BarrierModel(a=-0.3, b=1.7, v0=5.0, hbar=0.7, mass=1.3),
    BarrierModel(a=2.0, b=2.25, v0=40.0, hbar=1.3, mass=0.8),
]


# Interior phase |kappa| * width about which _energies places four rows,
# between the barrier top and the thick-barrier regime.
_PHASE = 0.5


def _energies(model):
    """Threshold, degenerate shell, both sides of |kappa| * width = _PHASE."""
    v0 = model.v0
    # Energy offset from v0 at which |kappa| * width = _PHASE.
    switch = (model.hbar * _PHASE / model.width) ** 2 / (2.0 * model.mass)
    return np.array([
        1e-6, 0.5 * v0,
        v0, v0 - 1e-13, v0 + 1e-13, v0 - 1e-6, v0 + 1e-6,
        v0 - 1.01 * switch, v0 - 0.99 * switch,
        v0 + 0.99 * switch, v0 + 1.01 * switch,
        3.0 * v0, 1e6,
    ])


def _close(kernel_value, scalar_value):
    a = np.asarray(kernel_value, dtype=complex)
    b = np.asarray(scalar_value, dtype=complex)
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return bool(abs(a - b) <= 1e-14 * abs(b))


@pytest.mark.parametrize("model", MODELS)
def test_kernel_matches_scalar_view_field_by_field(model):
    energies = _energies(model)
    names = [f.name for f in dataclasses.fields(ScatteringSolution)
             if f.name != "model"] + ["a_l", "b_l", "a_r", "b_r"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _solve(model, energies)
        rows = {name: getattr(sol, name) for name in names}
        for i, energy in enumerate(energies):
            one = solve_matching(model, float(energy))
            assert one.model == sol.model == model
            for name in names:
                assert _close(rows[name][i], getattr(one, name)), \
                    f"{name} at E={energy!r}"
    # The interior amplitudes are NaN at the shell energies, and only there.
    shell = [False, False, True, True, True] + [False] * 8
    for name in ("a_l", "b_l", "a_r", "b_r"):
        assert np.isnan(rows[name]).tolist() == shell


@pytest.mark.parametrize("model", MODELS)
def test_grid_rows_match_scattering_wave(model):
    energies = _energies(model)
    x = np.concatenate([np.linspace(model.a - 2.0, model.b + 2.0, 29),
                        [model.a, model.b]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _solve(model, energies)
        for channel in Channel:
            for sign in SignLabel:
                rows = _wave_grid(sol, channel, sign, x)
                for i, energy in enumerate(energies):
                    ref = scattering_wave(model, float(energy), channel, sign, x)
                    assert np.all(np.isfinite(rows[i]))
                    assert np.all(np.abs(rows[i] - ref)
                                  <= 1e-14 * np.maximum(np.abs(ref), 1.0)), \
                        f"{channel} {sign} at E={energy!r}"


@pytest.mark.parametrize("model", MODELS)
def test_interior_waves_meet_the_exterior_table(model):
    # The shell energies and both sides of |kappa| * width = _PHASE.
    energies = _energies(model)[2:11]
    sol = _solve(model, energies)
    steps = np.array([model.a, model.b])
    wave = np.exp(1j * np.outer(sol.k, steps))
    for channel in Channel:
        psi, dpsi = _interior_waves(sol, channel, steps)
        for col, weights in enumerate(_exterior_weights(sol, SignLabel.PLUS)):
            w_a, w_b = (np.broadcast_to(w, sol.k.shape)
                        for w in weights[channel])
            e = wave[:, col]
            value = w_a * e + w_b * np.conj(e)
            slope = 1j * sol.k * (w_a * e - w_b * np.conj(e))
            assert np.all(abs(psi[:, col] - value) <= 1e-14 * abs(value))
            assert np.all(abs(dpsi[:, col] - slope) <= 1e-14 * abs(slope))


# Thin, wide, opaque, off-origin and non-unit (hbar, mass) barriers.
ORACLE_MODELS = [
    BarrierModel(),
    BarrierModel(a=0.0, b=5.0, v0=2.0),
    BarrierModel(a=10.0, b=11.0, v0=1e4),
    BarrierModel(a=-3.0, b=3.0, v0=50.0),
    BarrierModel(a=0.0, b=1.0, v0=2e5),
    BarrierModel(a=1.0, b=1.5, v0=0.7, hbar=0.8, mass=1.3),
    BarrierModel(a=-0.3, b=1.7, v0=5.0, hbar=0.7, mass=1.3),
    BarrierModel(a=2.0, b=2.25, v0=40.0, hbar=1.3, mass=0.8),
    BarrierModel(a=0.0, b=20.0, v0=1.0),
    BarrierModel(a=-1.0, b=1.0, v0=1e3, hbar=0.5, mass=2.0),
]


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_interior_values_match_the_mpmath_oracle(model):
    # Twelve decades of energy, the barrier top and both sides of it.
    v0 = model.v0
    energies = np.concatenate([
        np.logspace(-6.0, 6.0, 13), [v0],
        v0 * (1.0 + np.array([-1e-13, 1e-13, -1e-8, 1e-8, -1e-3, 1e-3]))])
    x = np.linspace(model.a, model.b, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _solve(model, energies)
        # Rounding of k x and of kappa (x - a) bounds the attainable error.
        unit = np.finfo(float).eps * (
            1.0 + sol.k * max(abs(model.a), abs(model.b))
            + np.abs(sol.kappa) * model.width)
        for channel in Channel:
            psi, dpsi = _interior_waves(sol, channel, x)
            plus, minus = (_wave_grid(sol, channel, sign, x,
                                      include_prefactor=False)
                           for sign in (SignLabel.PLUS, SignLabel.MINUS))
            for i, energy in enumerate(energies):
                ref, dref = mp_interior_waves(model, float(energy), channel, x)
                for got, want in ((psi[i], ref), (dpsi[i], dref),
                                  (plus[i], ref), (minus[i], np.conj(ref))):
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= 8.0 * unit[i], \
                        f"{channel} at E={energy!r}: {err / unit[i]:.2f} units"


def test_one_opaque_energy_fails_the_whole_array():
    model = BarrierModel(v0=1e7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError):
            _solve(model, np.array([2e7, 1e-4, 3e7]))
