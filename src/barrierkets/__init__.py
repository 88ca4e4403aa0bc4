"""Continuum eigenfunction machinery for the 1D rectangular barrier.

The package computes scattering coefficients from exact matching, evaluates
the doubly degenerate generalized eigenfunctions, maintains a concrete space
of smooth test functions vanishing at the potential steps, and expands those
functions over the energy and momentum continua.  Every formal identity of
the underlying formalism (eigen-equations, delta normalization, Parseval,
commutators, invariance of the test space) is available as a smeared,
finite-tolerance numerical check.
"""

from .errors import AccuracyError, CapabilityError, ConditioningError, \
    DomainError
from .model import BarrierModel, Observable, wave_numbers
from .quadrature import QuadratureResult, QuadratureSpec, integrate_energy, \
    integrate_energy_batch, integrate_line, integrate_line_batch
from .scattering import Channel, ScatteringSolution, SignLabel, s_matrix, \
    solve_matching
from .eigenbasis import energy_prefactor, scattering_wave
from .testspace import GaussianPacket, TestFunction, apply_observable, \
    build_test_function, evaluate, inner_product, lincomb, seminorm, \
    slow_decay_example
from .transforms import EnergyAmplitude, MomentumAmplitude, energy_transform, \
    expectation_uncertainty, momentum_transform, parseval_defect, \
    spectral_matrix_element, spectral_probability, synthesize_energy, \
    synthesize_momentum
from .verify import ResidualReport, SUITE_CHECK_NAMES, check_commutators, \
    check_delta_normalization, check_eigen_equation, \
    check_eigenbra_conjugation, check_invariance_battery, check_non_member, \
    default_battery, run_default_suite

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CapabilityError",
    "ConditioningError",
    "DomainError",
    "BarrierModel",
    "Observable",
    "wave_numbers",
    "QuadratureResult",
    "QuadratureSpec",
    "integrate_energy",
    "integrate_energy_batch",
    "integrate_line",
    "integrate_line_batch",
    "Channel",
    "ScatteringSolution",
    "SignLabel",
    "s_matrix",
    "solve_matching",
    "energy_prefactor",
    "scattering_wave",
    "GaussianPacket",
    "TestFunction",
    "apply_observable",
    "build_test_function",
    "evaluate",
    "inner_product",
    "lincomb",
    "seminorm",
    "slow_decay_example",
    "EnergyAmplitude",
    "MomentumAmplitude",
    "energy_transform",
    "expectation_uncertainty",
    "momentum_transform",
    "parseval_defect",
    "spectral_matrix_element",
    "spectral_probability",
    "synthesize_energy",
    "synthesize_momentum",
    "ResidualReport",
    "SUITE_CHECK_NAMES",
    "check_commutators",
    "check_delta_normalization",
    "check_eigen_equation",
    "check_eigenbra_conjugation",
    "check_invariance_battery",
    "check_non_member",
    "default_battery",
    "run_default_suite",
    "__version__",
]
