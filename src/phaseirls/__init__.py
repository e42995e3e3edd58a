"""L1-norm 2-D phase unwrapping via iteratively reweighted least squares."""

from .diagnostics import ConditioningReport, conditioning_report
from .irls import BudgetDecision, IrlsParams, IrlsTrace, UnwrapResult, cg_budget_update, relative_improvement, unwrap
from .objective import (
    IrlsWeights,
    ModelParams,
    candidate_step,
    eval_f,
    eval_f_delta,
    eval_h_delta,
    lipschitz_constant,
    update_weights,
)
from .operators import (
    DiagonalWeights,
    SystemVector,
    apply_system,
    build_rhs,
    materialize_dense_system,
)
from .pcg import NumericalBreakdown, PcgOutcome, pcg_solve
from .phase import (
    ErrorReport,
    GradientField,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)
from .preconditioner import (
    PreconditionerState,
    SpectralCache,
    apply_preconditioner,
    build_preconditioner,
    build_spectral_cache,
    sylvester_solve,
)
from .synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

__version__ = "0.1.0"
