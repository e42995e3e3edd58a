"""L1-norm 2-D phase unwrapping via iteratively reweighted least squares."""

from .diagnostics import (
    PreconditionerState,
    apply_preconditioner,
    apply_system,
    build_preconditioner,
    build_rhs,
)
from .irls import IrlsParams, IrlsTrace, UnwrapResult, unwrap
from .objective import (
    ModelParams,
    SystemVector,
    candidate_step,
    eval_f,
    eval_f_delta,
    eval_h_delta,
    lipschitz_constant,
    update_weights,
)
from .pcg import NumericalBreakdown, PcgOutcome, pcg_solve
from .phase import (
    ArcField,
    ErrorReport,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)
from .preconditioner import SpectralCache, build_spectral_cache, sylvester_solve
from .synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

__version__ = "0.1.0"
