"""Density-matrix dynamics of few-level systems under scheduled
dephasing measurements and coherence sign flips.

The package simulates how repeated coherence-destroying measurements
slow population transfer out of a distinguished level (the quantum Zeno
regime) and how the same interventions can accelerate decay for a level
detuned from a band (the anti-Zeno regime), together with the low-order
closed forms that explain both through the interplay of populations and
imaginary coherence parts.

The public API is the ``__all__`` of the modules re-exported here.
"""

from . import core, diagnostics, interventions, models, perturbation, propagator, scenario
from .core import *
from .diagnostics import *
from .interventions import *
from .models import *
from .perturbation import *
from .propagator import *
from .scenario import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *models.__all__,
    *propagator.__all__,
    *interventions.__all__,
    *perturbation.__all__,
    *diagnostics.__all__,
    *scenario.__all__,
    "__version__",
]
