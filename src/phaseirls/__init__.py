"""L1-norm 2-D phase unwrapping via iteratively reweighted least squares.

The top level holds ``unwrap`` and the scene and error tools around it; the
solver's internals are imported from their modules.
"""

from .irls import IrlsParams, IrlsTrace, UnwrapResult, unwrap
from .objective import ModelParams
from .pcg import NumericalBreakdown
from .phase import (
    ArcField,
    ErrorReport,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)
from .synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

__version__ = "0.1.0"
