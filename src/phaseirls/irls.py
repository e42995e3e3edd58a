"""Outer reweighting loop with warm-started PCG and a descent safeguard.

Each outer iteration refreshes the closed-form weights and runs a budgeted
PCG solve on the resulting weighted least squares problem, warm-started from
the previous estimate.  For fixed weights each slack has a closed-form
minimizer given u, so the solve runs on the reduced weighted Poisson system
in u alone (``kernels.weighted_laplacian``), preconditioned by the
spectral Sylvester solve; the proposal is u with its optimal slacks.  The
proposal is accepted only if it does at least as well as one explicit
gradient step on the lifted objective (falling back to that step otherwise,
which makes the sufficient-decrease condition hold at every accepted
iterate).  That candidate step needs only the current state, so it is formed
before the solve, and the proposal is then written over the state.  Under
fixed weights h is a convex quadratic with Hessian A, so the step x - s/L
along the gradient s has h at least h(x) - ||s||^2/L: a proposal at or below
that bound is accepted without evaluating the candidate, whose h is formed
only when the bound fails.  The gradient s is the residual A x - b in
residual form, which ``kernels.apply_system_blocks`` computes from the
coupling residual K u - g - v with the data g.

The proposal's evaluation also forms its refreshed weights and h under them
(sum(w) plus its coupling penalty), so an accepted proposal carries both
into the next outer iteration; ``update_weights`` and
``eval_h_delta_refreshed`` run only at the start and after a fallback.  The
loop holds two system vectors (state and candidate), the grid ``ap`` of the
CG map's output and the ``phase.ArcField`` pairs ``w``, ``wr`` and ``flux``,
all allocated at set-up and passed by keyword to every collaborator that
writes a grid; an accepted proposal swaps ``w`` and ``wr``.  PCG iterates
in the state's u and the right-hand side grid, so after set-up the loop's
only grid-sized allocations are the solve's search direction, one transform
temporary per Sylvester apply and the two transient products inside the
block-system apply of the gradient step.  The
CG budget and overall stopping follow the relative-improvement heuristic:
keep the budget while weight updates still help, stop when they stall right
after a budget increase, and otherwise grow the budget geometrically.  A
stall right after a solve that ran no CG iteration (and no fallback) also
stops the loop in place of a grow: that solve started converged, so its
proposal is the fixed point of the reweighting, and a larger budget would
only re-solve an almost unchanged system from its own solution.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels, preconditioner
from .objective import (
    ModelParams,
    candidate_step,
    eval_h_delta,
    eval_h_delta_and_refresh,
    eval_h_delta_refreshed,
    lipschitz_constant,
    update_weights,
)
from .operators import SystemVector, build_reduced_rhs, recover_slacks, reduced_weights
from .pcg import pcg_solve
from .phase import ArcField, WeightField, wrapped_gradients
from .preconditioner import build_spectral_cache

# not called here; names of this module that the traced benchmark run rebinds
from .diagnostics import apply_preconditioner, apply_system, build_preconditioner, build_rhs  # noqa: F401

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
        for name in ("max_iter_cg_start", "max_outer_iters"):
            value = getattr(self, name)
            # a bool is an int to Python, but no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    """One outer iteration, and in field order the keys of a ``--trace`` line.

    ``fallback`` is true when the gradient step was taken in place of the PCG proposal.
    """

    k: int
    m_cg: int
    delta_rel: float | None
    h_delta: float
    cg_iters: int
    fallback: bool
    cg_converged: bool
    cg_rel_residual: float


@dataclass
class IrlsTrace:
    """The ``IterationRecord`` of each outer iteration, in order."""

    records: list = field(default_factory=list)

    def h_values(self):
        return [r.h_delta for r in self.records]

    def fallback_count(self):
        return sum(1 for r in self.records if r.fallback)

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
    loop, either after a fruitless grow or on a stall after a solve that ran
    no CG iteration, and ``"max_outer"`` when ``max_outer_iters`` ran out first.
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
           params: IrlsParams | None = None):
    """Unwrap a wrapped phase grid; returns the mean-zero estimate and slacks.

    Parameters
    ----------
    x : ndarray
        Wrapped phase grid with values in [0, 2*pi).  Its neighbor
        differences are reduced into [-pi, pi).
    c : WeightField, optional
        Arc weights; ``WeightField.uniform`` when omitted.
    model : ModelParams, optional
        Penalty and smoothing parameters.
    params : IrlsParams, optional
        Outer-loop and CG budget controls.
    """
    # validates x: a finite, non-empty 2-D grid with values in [0, 2*pi)
    g = wrapped_gradients(x)
    n, m = g.shape
    if model is None:
        model = ModelParams()
    if params is None:
        params = IrlsParams()
    if c is None:
        c = WeightField.uniform(n, m)
    if c.shape != (n, m):
        raise ValueError(f"weight shapes {c.v.shape}/{c.h.shape} do not match grid {(n, m)}")

    lip = lipschitz_constant(c, model)
    cache = build_spectral_cache(n, m)
    tau = model.tau

    # every grid of the outer loop, allocated once.  wr holds the candidate's
    # d = c^2/w, then the reduced weights and then the proposal's refreshed
    # weights, which an accepted proposal swaps into w; ap holds the CG map's
    # output.  flux is the scratch of every evaluation and map apply.
    state = SystemVector.zeros(n, m)
    np.negative(g.v, out=state.vv)
    np.negative(g.h, out=state.vh)
    cand = SystemVector.zeros(n, m)
    w = ArcField.empty(n, m)
    wr = ArcField.empty(n, m)
    ap = np.empty((n, m))
    flux = ArcField.empty(n, m)
    rhs = np.empty((n, m))
    z = np.empty((n, m))
    trace = IrlsTrace()
    # the CG budgets of the last two outer iterations
    m_cg = m_prev = params.max_iter_cg_start
    stop_reason = "max_outer"
    # h at the state under its refreshed weights w; None when w is not yet refreshed
    h_state = None

    for k in range(params.max_outer_iters):
        if h_state is None:
            update_weights(state, c, model.delta, out=w)
            # under refreshed weights h is sum(w) plus the coupling penalty
            h_state = eval_h_delta_refreshed(state, w, g, model, scratch=flux)
        delta_rel = None
        if k >= 1:
            # the last record holds h at this state under the previous weights
            h_old_w = trace.records[-1].h_delta
            # arc-free grids have an identically zero objective; nothing to improve
            delta_rel = 0.0 if h_old_w == 0 else relative_improvement(h_old_w, h_state)
            decision = cg_budget_update(delta_rel, m_cg, m_prev, params)
            # a larger budget cannot act on a solve that ran no CG iteration:
            # its proposal already solved this system, so the state is the fixed point
            last = trace.records[-1]
            if decision.action == "stop" or (
                decision.action == "grow" and last.cg_iters == 0 and not last.fallback
            ):
                stop_reason = "heuristic"
                break
            m_prev, m_cg = m_cg, decision.m_cg

        # the candidate needs only the state, so it is formed before the
        # reduced weights and the solve take over wr
        _, grad_sq = candidate_step(state, w, g, c, model, lip, out=cand, scratch=wr)

        reduced_weights(c, w, tau, out=wr, flux=flux)
        build_reduced_rhs(g, wr, out=rhs, flux=flux)
        rhs_norm = np.linalg.norm(rhs)
        # the solve warm-starts from the state's u and iterates in it; the
        # state is not needed any more, and rhs ends as the residual
        outcome = pcg_solve(
            apply_a=lambda v: kernels.weighted_laplacian(v, *wr, *flux, ap),
            apply_m=lambda r: preconditioner.sylvester_solve(r, tau, cache, out=z),
            b=rhs,
            x=state.u,
            max_iters=m_cg,
            rel_tol=CG_REL_TOL,
        )
        cg_iters = outcome.iterations
        cg_converged = bool(outcome.converged)
        cg_rel_residual = outcome.residual_norms[-1] / rhs_norm if rhs_norm > 0 else 0.0
        # the proposal: u from the solve with its optimal slacks; the reduced
        # weights are spent, so the proposal's refreshed weights replace them
        recover_slacks(state.u, g, wr, tau, out=state, flux=flux)
        h_prop, h_next = eval_h_delta_and_refresh(state, w, g, c, model, refreshed=wr, scratch=flux)
        # the candidate's h is at least h_state - grad_sq / lip, so a proposal
        # at or below that bound beats it.  Both tests are written as negations
        # so that a NaN proposal value also falls back
        fallback = not h_prop <= h_state - grad_sq / lip
        if fallback:
            h_cand = eval_h_delta(cand, w, g, c, model, scratch=flux)
            fallback = not h_prop <= h_cand
        if fallback:
            state, cand = cand, state
            h_state = None
        else:
            w, wr = wr, w
            h_state = h_next
        # h only sees differences of u, so centring changes it by round-off alone
        state.u -= state.u.mean()

        trace.records.append(
            IterationRecord(
                k=k,
                m_cg=m_cg,
                delta_rel=delta_rel,
                h_delta=h_cand if fallback else h_prop,
                cg_iters=cg_iters,
                fallback=fallback,
                cg_converged=cg_converged,
                cg_rel_residual=float(cg_rel_residual),
            )
        )

    return UnwrapResult(
        u=state.u, vv=state.vv, vh=state.vh, trace=trace, stop_reason=stop_reason
    )
