"""Density-matrix dynamics of few-level systems under scheduled
dephasing measurements and coherence sign flips.

The package simulates how repeated coherence-destroying measurements
slow population transfer out of a distinguished level (the quantum Zeno
regime) and how the same interventions can accelerate decay for a level
detuned from a band (the anti-Zeno regime), together with the low-order
closed forms that explain both through the interplay of populations and
imaginary coherence parts.
"""

from .core import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    HermitianMatrix,
    ParameterError,
    SpectralData,
    UnsupportedPairError,
    ValidationError,
    ZenosimError,
    as_matrix,
)
from .diagnostics import (
    coherence_rate,
    population_rate_residual,
    record_observables,
    sigma,
    validate_observables,
)
from .interventions import (
    Intervention,
    InterventionKind,
    InterventionSchedule,
    apply_intervention,
    measure_dephase,
    sign_flip,
)
from .models import (
    ModelKind,
    ModelSpec,
    build,
    continuum_grid,
    hub,
)
from .perturbation import (
    ChannelInputs,
    channel_inputs,
    coherence_from_pop_1st,
    coupling_integral,
    pop_from_coherence_1st,
    pop_from_pop_2nd,
    rho00_perturbative,
    sigma_first_order,
    sigma_min_predictor,
)
from .propagator import eigendecompose, evolve, liouville_rhs, rk4_evolve
from .scenario import (
    Classification,
    Effect,
    InterventionMarker,
    ScenarioSpec,
    Trajectory,
    classify_effect,
    run,
    run_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ZenosimError",
    "DimensionMismatchError",
    "ValidationError",
    "ParameterError",
    "UnsupportedPairError",
    "DegenerateSpectrumError",
    "HermitianMatrix",
    "SpectralData",
    "as_matrix",
    "ModelKind",
    "ModelSpec",
    "continuum_grid",
    "hub",
    "build",
    "eigendecompose",
    "evolve",
    "liouville_rhs",
    "rk4_evolve",
    "InterventionKind",
    "Intervention",
    "InterventionSchedule",
    "measure_dephase",
    "sign_flip",
    "apply_intervention",
    "ChannelInputs",
    "channel_inputs",
    "coupling_integral",
    "pop_from_coherence_1st",
    "coherence_from_pop_1st",
    "pop_from_pop_2nd",
    "rho00_perturbative",
    "sigma_first_order",
    "sigma_min_predictor",
    "sigma",
    "record_observables",
    "validate_observables",
    "population_rate_residual",
    "coherence_rate",
    "ScenarioSpec",
    "InterventionMarker",
    "Trajectory",
    "Effect",
    "Classification",
    "run",
    "run_batch",
    "classify_effect",
    "__version__",
]
