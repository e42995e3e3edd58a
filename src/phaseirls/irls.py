"""Outer reweighting loop with warm-started PCG and a descent safeguard.

Each outer iteration refreshes the closed-form weights and runs a budgeted
PCG solve on the resulting weighted least squares problem, warm-started from
the previous estimate.  For fixed weights each slack has a closed-form
minimizer given u, so the solve runs on the reduced weighted Poisson system
in u alone (``operators.apply_reduced_system``), preconditioned by the
spectral Sylvester solve; the proposal is u with its optimal slacks.  The
proposal is accepted only if it does at least as well as one explicit
gradient step on the lifted objective (falling back to that step otherwise,
which makes the sufficient-decrease condition hold at every accepted
iterate).  That candidate step needs only the current state, so it and its
objective value are formed before the solve, and the proposal is then written
over the state.  The loop holds two system vectors (state and candidate)
and one scratch vector, all allocated at set-up.  PCG iterates in the
state's u and the right-hand side grid, so after set-up the loop's only
grid-sized allocations are the solve's search direction, one transform
temporary per Sylvester apply and the two transient products inside the
block-system apply of the gradient step.  Under
refreshed weights the objective of the state is sum(w) plus its coupling
penalty, so each outer iteration evaluates the lifted objective twice, for
the candidate and for the proposal.  The CG budget and overall stopping
follow the relative-improvement heuristic: keep the budget while weight
updates still help, stop when they stall right after a budget increase, and
otherwise grow the budget geometrically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import preconditioner
from .objective import (
    IrlsWeights,
    ModelParams,
    candidate_step,
    eval_h_delta,
    eval_h_delta_refreshed,
    lipschitz_constant,
    update_weights,
)
from .operators import (
    DiagonalWeights,
    SystemVector,
    apply_reduced_system,
    build_reduced_rhs,
    recover_slacks,
    reduced_weights,
)
from .pcg import pcg_solve
from .phase import WeightField, wrapped_gradients
from .preconditioner import build_spectral_cache

# not called here; kept only as names of this module, which the traced benchmark run rebinds
from .operators import apply_system, build_rhs  # noqa: F401
from .preconditioner import apply_preconditioner, build_preconditioner  # noqa: F401

__all__ = [
    "IrlsParams",
    "IterationRecord",
    "IrlsTrace",
    "BudgetDecision",
    "UnwrapResult",
    "cg_budget_update",
    "relative_improvement",
    "unwrap",
]

# the CG budget cap of the growth rule, and the PCG relative residual tolerance
MAX_CG_ITERS = 10_000
CG_REL_TOL = 1e-10


@dataclass(frozen=True)
class IrlsParams:
    max_iter_cg_start: int = 5
    rel_improvement_tol: float = 1e-3
    cg_growth_factor: float = 1.7
    max_outer_iters: int = 100

    def __post_init__(self):
        if not 1 <= self.max_iter_cg_start <= MAX_CG_ITERS:
            raise ValueError(f"max_iter_cg_start must lie in [1, {MAX_CG_ITERS}]")
        if not 0 < self.rel_improvement_tol < math.inf:
            raise ValueError("rel_improvement_tol must be positive and finite")
        if not 1 < self.cg_growth_factor < math.inf:
            raise ValueError("cg_growth_factor must exceed 1 and be finite")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    m_cg: int
    delta_rel: float | None
    h_delta: float
    cg_iters: int
    sufficient_decrease: bool
    fallback_used: bool
    cg_converged: bool
    cg_rel_residual: float


@dataclass
class IrlsTrace:
    records: list = field(default_factory=list)

    def append(self, record):
        self.records.append(record)

    def h_values(self):
        return [r.h_delta for r in self.records]

    def fallback_count(self):
        return sum(1 for r in self.records if r.fallback_used)

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class BudgetDecision:
    """One of "keep", "stop" or "grow"; ``m_cg`` is the budget going forward."""

    action: str
    m_cg: int


@dataclass(frozen=True)
class UnwrapResult:
    """Estimate and slacks (views into one buffer) plus the trace.

    ``stop_reason`` is ``"heuristic"`` when the CG-budget rule stopped the
    loop and ``"max_outer"`` when ``max_outer_iters`` ran out first.
    """

    u: np.ndarray
    vv: np.ndarray
    vh: np.ndarray
    trace: IrlsTrace
    stop_reason: str


def relative_improvement(h_old_w, h_new_w):
    """Relative drop of the lifted objective caused by a weight refresh."""
    if h_old_w <= 0:
        raise ValueError(f"reference objective value must be positive, got {h_old_w}")
    return (h_old_w - h_new_w) / h_old_w


def cg_budget_update(delta_rel, m_prev, m_prev2, params: IrlsParams):
    """Keep while improving, stop after a fruitless grow or at the cap, else grow."""
    if m_prev < 1:
        raise ValueError("m_prev must be >= 1")
    if delta_rel > params.rel_improvement_tol:
        return BudgetDecision("keep", m_prev)
    if m_prev != m_prev2 or m_prev >= MAX_CG_ITERS:
        return BudgetDecision("stop", m_prev)
    # capped before the ceiling, so a huge factor cannot overflow to inf
    return BudgetDecision("grow", math.ceil(min(params.cg_growth_factor * m_prev, MAX_CG_ITERS)))


def unwrap(x, c: WeightField | None = None, model: ModelParams | None = None,
           params: IrlsParams | None = None, gradient_lo=-np.pi):
    """Unwrap a wrapped phase grid; returns the mean-zero estimate and slacks.

    Parameters
    ----------
    x : ndarray
        Wrapped phase grid with values in [0, 2*pi).
    c : WeightField, optional
        Arc weights; uniform weights when omitted.
    model : ModelParams, optional
        Penalty and smoothing parameters.
    params : IrlsParams, optional
        Outer-loop and CG budget controls.
    gradient_lo : float, optional
        Principal interval used for the wrapped gradients, -pi or 0.
    """
    # validates x: a finite, non-empty 2-D grid with values in [0, 2*pi)
    g = wrapped_gradients(x, gradient_lo)
    n, m = g.shape
    if model is None:
        model = ModelParams()
    if params is None:
        params = IrlsParams()
    if c is None:
        # read-only views of one scalar: uniform weights that hold no grids
        c = WeightField(np.broadcast_to(1.0, (n - 1, m)), np.broadcast_to(1.0, (n, m - 1)))
    if c.cv.shape != (n - 1, m) or c.ch.shape != (n, m - 1):
        raise ValueError(
            f"weight shapes {c.cv.shape}/{c.ch.shape} do not match grid {(n, m)}"
        )

    lip = lipschitz_constant(c, model)
    cache = build_spectral_cache(n, m)
    tau = model.tau

    # every grid of the outer loop, allocated once.  The scratch vector's slack
    # blocks hold the candidate's d = c^2/w and then the reduced weights; its u
    # block holds the candidate's b and then the CG map's output.  flux is the
    # scratch of every evaluation and map apply.
    state = SystemVector.zeros(n, m)
    np.negative(g.gv, out=state.vv)
    np.negative(g.gh, out=state.vh)
    cand = SystemVector.zeros(n, m)
    w = IrlsWeights(np.empty((n - 1, m)), np.empty((n, m - 1)))
    work = SystemVector.zeros(n, m)
    wr = DiagonalWeights(work.vv, work.vh)
    ap = work.u
    flux = (np.empty((n - 1, m)), np.empty((n, m - 1)))
    rhs = np.empty((n, m))
    z = np.empty((n, m))
    trace = IrlsTrace()
    # the CG budgets of the last two outer iterations
    m_cg = m_prev = params.max_iter_cg_start
    stop_reason = "max_outer"

    for k in range(params.max_outer_iters):
        update_weights(state, c, model.delta, out=w)
        delta_rel = None
        if k >= 1:
            # the last record holds h at this state under the previous weights;
            # under the refreshed ones h is sum(w) plus the coupling penalty
            h_old_w = trace.records[-1].h_delta
            h_new_w = eval_h_delta_refreshed(state, w, g, model, scratch=flux)
            # arc-free grids have an identically zero objective; nothing to improve
            delta_rel = 0.0 if h_old_w == 0 else relative_improvement(h_old_w, h_new_w)
            decision = cg_budget_update(delta_rel, m_cg, m_prev, params)
            if decision.action == "stop":
                stop_reason = "heuristic"
                break
            m_prev, m_cg = m_cg, decision.m_cg

        # the candidate needs only the state, so it is formed before the solve
        # takes over the scratch vector
        candidate_step(state, w, g, c, model, lip, out=cand, scratch=work)
        h_cand = eval_h_delta(cand, w, g, c, model, scratch=flux)

        reduced_weights(c, w, tau, out=wr, flux=flux)
        build_reduced_rhs(g, wr, out=rhs, flux=flux)
        rhs_norm = np.linalg.norm(rhs)
        # the solve warm-starts from the state's u and iterates in it; the
        # state is not needed any more, and rhs ends as the residual
        outcome = pcg_solve(
            apply_a=lambda v: apply_reduced_system(v, wr, out=ap, flux=flux),
            apply_m=lambda r: preconditioner.sylvester_solve(r, tau, cache, out=z),
            b=rhs,
            x=state.u,
            max_iters=m_cg,
            rel_tol=CG_REL_TOL,
        )
        cg_iters = outcome.iterations
        cg_converged = bool(outcome.converged)
        cg_rel_residual = outcome.residual_norms[-1] / rhs_norm if rhs_norm > 0 else 0.0
        # the proposal: u from the solve with its optimal slacks
        recover_slacks(state.u, g, wr, tau, out=state, flux=flux)
        h_prop = eval_h_delta(state, w, g, c, model, scratch=flux)
        sufficient = h_prop <= h_cand
        if not sufficient:
            state, cand = cand, state
        # h only sees differences of u, so centring changes it by round-off alone
        state.u -= state.u.mean()

        trace.append(
            IterationRecord(
                k=k,
                m_cg=m_cg,
                delta_rel=delta_rel,
                h_delta=h_prop if sufficient else h_cand,
                cg_iters=cg_iters,
                sufficient_decrease=sufficient,
                fallback_used=not sufficient,
                cg_converged=cg_converged,
                cg_rel_residual=float(cg_rel_residual),
            )
        )

    return UnwrapResult(
        u=state.u, vv=state.vv, vh=state.vh, trace=trace, stop_reason=stop_reason
    )
