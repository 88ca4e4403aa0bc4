"""Barrier geometry, unit constants and the formal observables.

The potential is a single rectangular step: V(x) = 0 for x < a, V(x) = v0 for
a <= x <= b, V(x) = 0 for x > b.  The closed convention (V equal to v0 at the
steps themselves) is adopted; test functions vanish at a and b together with
all their derivatives, so no smeared quantity depends on the choice.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .errors import DomainError, finite_float

__all__ = [
    "Observable",
    "BarrierModel",
    "wave_numbers",
]


class Observable(Enum):
    """Position, momentum and energy, in that order."""

    Q = "Q"
    P = "P"
    H = "H"


@dataclass(frozen=True)
class BarrierModel:
    """Rectangular barrier of height ``v0`` on ``[a, b]``.

    Default units set hbar = 1 and mass = 1/2, so that k = sqrt(E) and
    kappa = sqrt(E - v0).
    """

    a: float = 0.0
    b: float = 1.0
    v0: float = 2.0
    hbar: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        # Every field is held as a float; an int beyond float range is
        # refused here rather than overflowing in the first formula.
        for f in fields(self):
            object.__setattr__(self, f.name,
                               finite_float(f.name, getattr(self, f.name)))
        if not self.a < self.b:
            raise DomainError(f"barrier edges must satisfy a < b, got a={self.a}, b={self.b}")
        if not self.v0 >= 0.0:
            raise DomainError(f"barrier height must be >= 0, got {self.v0}")
        if not (self.hbar > 0.0 and self.mass > 0.0):
            raise DomainError("hbar and mass must be positive")

    @property
    def width(self) -> float:
        return self.b - self.a

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BarrierModel":
        unknown = set(data) - {"a", "b", "v0", "hbar", "mass"}
        if unknown:
            raise DomainError(f"unknown model keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BarrierModel":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class WaveNumbers:
    """Exterior wave number k (real) and interior wave number kappa.

    Scalars for one energy, arrays of the same shape for an energy array.

    kappa is the principal square root of kappa_sq = 2 m (E - v0) / hbar^2,
    taken with Im kappa >= 0, so evanescent interior waves decay away from
    the step they were matched at.
    """

    k: float
    kappa: complex
    kappa_sq: float


def wave_numbers(model: BarrierModel, energy) -> WaveNumbers:
    """Wave numbers for scattering energies E > 0.

    Accepts a scalar or an array of energies; the fields follow its shape.
    Raises DomainError at or below the bottom of the continuous spectrum.
    """
    e = np.asarray(energy, dtype=float)
    bad = ~(np.isfinite(e) & (e > 0.0))
    if bad.any():
        raise DomainError(f"energy must be > 0, got {e[bad].flat[0]}")
    two_m = 2.0 * model.mass
    k = np.sqrt(two_m * e) / model.hbar
    kappa_sq = two_m * (e - model.v0) / model.hbar**2
    root = np.sqrt(np.abs(kappa_sq))
    kappa = np.where(kappa_sq >= 0.0, root + 0j, 1j * root)
    if e.ndim == 0:
        return WaveNumbers(k=float(k), kappa=complex(kappa),
                           kappa_sq=float(kappa_sq))
    return WaveNumbers(k=k, kappa=kappa, kappa_sq=kappa_sq)

