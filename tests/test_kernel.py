"""The array matching kernel and grid evaluator against their scalar views."""

import dataclasses
import warnings

import numpy as np
import pytest

from barrierkets import (
    BarrierModel,
    Channel,
    ConditioningError,
    SignLabel,
    scattering_wave,
    solve_matching,
)
from barrierkets.eigenbasis import _exterior_weights, _interior_waves, \
    _wave_grid
from barrierkets.scattering import SMALL_PHASE, _solve

MODELS = [
    BarrierModel(),
    BarrierModel(a=-0.3, b=1.7, v0=5.0, hbar=0.7, mass=1.3),
    BarrierModel(a=2.0, b=2.25, v0=40.0, hbar=1.3, mass=0.8),
]


def _energies(model):
    """Threshold, degenerate shell, both sides of the propagator switch."""
    v0 = model.v0
    # Energy offset from v0 at which |kappa| * width = SMALL_PHASE.
    switch = (model.hbar * SMALL_PHASE / model.width) ** 2 / (2.0 * model.mass)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _solve(model, energies)
        for i, energy in enumerate(energies):
            one = solve_matching(model, float(energy))
            for field in dataclasses.fields(one):
                ref = getattr(one, field.name)
                got = getattr(sol, field.name)
                if isinstance(ref, tuple):
                    pairs = [(g[i], r) for g, r in zip(got, ref)]
                else:
                    pairs = [(got[i], ref)]
                for g, r in pairs:
                    assert _close(g, r), f"{field.name} at E={energy!r}"
    # The shell energies are flagged, and only they.
    assert sol.degenerate.tolist() == [False, False, True, True, True] + [False] * 8


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
                rows = _wave_grid(model, sol, channel, sign, x)
                for i, energy in enumerate(energies):
                    ref = scattering_wave(model, float(energy), channel, sign, x)
                    assert np.all(np.isfinite(rows[i]))
                    assert np.all(np.abs(rows[i] - ref)
                                  <= 1e-14 * np.maximum(np.abs(ref), 1.0)), \
                        f"{channel} {sign} at E={energy!r}"


@pytest.mark.parametrize("model", MODELS)
def test_interior_waves_meet_the_exterior_table(model):
    # The shell energies and both sides of the propagator switch.
    energies = _energies(model)[2:11]
    sol = _solve(model, energies)
    steps = np.array([model.a, model.b])
    wave = np.exp(1j * np.outer(sol.k, steps))
    for channel in Channel:
        psi, dpsi = _interior_waves(model, sol, channel, steps)
        for col, weights in enumerate(_exterior_weights(sol, SignLabel.PLUS)):
            w_a, w_b = (np.broadcast_to(w, sol.k.shape)
                        for w in weights[channel])
            e = wave[:, col]
            value = w_a * e + w_b * np.conj(e)
            slope = 1j * sol.k * (w_a * e - w_b * np.conj(e))
            assert np.all(abs(psi[:, col] - value) <= 1e-14 * abs(value))
            assert np.all(abs(dpsi[:, col] - slope) <= 1e-14 * abs(slope))


def test_one_opaque_energy_fails_the_whole_array():
    model = BarrierModel(v0=1e7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError):
            _solve(model, np.array([2e7, 1e-4, 3e7]))
