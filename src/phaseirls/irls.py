"""Outer reweighting loop with warm-started PCG and a descent safeguard.

Each outer iteration refreshes the closed-form weights, runs a budgeted PCG
solve on the resulting weighted least squares system warm-started from the
previous triple, and accepts the solve only if it does at least as well as
one explicit gradient step (falling back to that step otherwise, which makes
the sufficient-decrease condition hold at every accepted iterate).  The CG
budget and overall stopping follow the relative-improvement heuristic: keep
the budget while weight updates still help, stop when they stall right after
a budget increase, and otherwise grow the budget geometrically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .objective import (
    ModelParams,
    candidate_step,
    eval_h_delta,
    lipschitz_constant,
    update_weights,
)
from .operators import DiagonalWeights, SystemVector, apply_system, build_rhs
from .pcg import pcg_solve
from .phase import WeightField, validate_wrapped, wrapped_gradients
from .preconditioner import apply_preconditioner, build_preconditioner, build_spectral_cache

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


@dataclass(frozen=True)
class IrlsParams:
    max_iter_cg_start: int = 5
    rel_improvement_tol: float = 1e-3
    cg_growth_factor: float = 1.7
    max_outer_iters: int = 100
    max_cg_iters_cap: int = 10_000
    cg_rel_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iter_cg_start < 1:
            raise ValueError("max_iter_cg_start must be >= 1")
        if self.rel_improvement_tol <= 0:
            raise ValueError("rel_improvement_tol must be positive")
        if self.cg_growth_factor <= 1:
            raise ValueError("cg_growth_factor must exceed 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.max_cg_iters_cap < self.max_iter_cg_start:
            raise ValueError("max_cg_iters_cap must be >= max_iter_cg_start")
        if self.cg_rel_tol < 0:
            raise ValueError("cg_rel_tol must be >= 0")


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
    """Budget rule: keep while improving, stop after a fruitless grow, else grow."""
    if m_prev < 1:
        raise ValueError("m_prev must be >= 1")
    if delta_rel > params.rel_improvement_tol:
        return BudgetDecision("keep", m_prev)
    if m_prev != m_prev2:
        return BudgetDecision("stop", m_prev)
    if m_prev >= params.max_cg_iters_cap:
        return BudgetDecision("stop", m_prev)
    grown = math.ceil(params.cg_growth_factor * m_prev)
    return BudgetDecision("grow", min(grown, params.max_cg_iters_cap))


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
    arr = validate_wrapped(x)
    n, m = arr.shape
    if model is None:
        model = ModelParams()
    if params is None:
        params = IrlsParams()
    if c is None:
        c = WeightField.uniform(n, m)
    if c.cv.shape != (n - 1, m) or c.ch.shape != (n, m - 1):
        raise ValueError(
            f"weight shapes {c.cv.shape}/{c.ch.shape} do not match grid {arr.shape}"
        )

    g = wrapped_gradients(arr, gradient_lo)
    b = build_rhs(g, model.tau)
    b_norm = b.norm()
    cache = build_spectral_cache(n, m)
    lip = lipschitz_constant(c, model)

    state = SystemVector.zeros(n, m)
    np.negative(g.gv, out=state.vv)
    np.negative(g.gh, out=state.vh)
    # the CG scratch vectors, overwritten by every system and preconditioner apply
    ap = SystemVector.zeros(n, m)
    z = SystemVector.zeros(n, m)
    trace = IrlsTrace()
    m_history = [params.max_iter_cg_start]
    stop_reason = "max_outer"

    for k in range(params.max_outer_iters):
        w = update_weights(state, c, model.delta)
        delta_rel = None
        if k >= 1:
            # the last record holds h at this state under the previous weights
            h_old_w = trace.records[-1].h_delta
            h_new_w = eval_h_delta(state, w, g, c, model)
            # arc-free grids have an identically zero objective; nothing to improve
            delta_rel = 0.0 if h_old_w == 0 else relative_improvement(h_old_w, h_new_w)
            m_prev = m_history[k - 1]
            m_prev2 = m_history[k - 2] if k >= 2 else m_prev
            decision = cg_budget_update(delta_rel, m_prev, m_prev2, params)
            if decision.action == "stop":
                stop_reason = "heuristic"
                break
            m_cg = decision.m_cg
        else:
            m_cg = m_history[0]
        if k >= 1:
            m_history.append(m_cg)

        d = DiagonalWeights(dv=c.cv * c.cv / w.wv, dh=c.ch * c.ch / w.wh)
        pc = build_preconditioner(cache, d, model.tau)
        outcome = pcg_solve(
            apply_a=lambda v: apply_system(v, d, model.tau, out=ap),
            apply_m=lambda r: apply_preconditioner(r, pc, out=z),
            b=b,
            x0=state,
            max_iters=m_cg,
            rel_tol=params.cg_rel_tol,
        )
        proposal = outcome.x
        cg_iters = outcome.iterations
        cg_converged = bool(outcome.converged)
        cg_rel_residual = outcome.residual_norms[-1] / b_norm if b_norm > 0 else 0.0
        # drop the solve's residual and this pass's weight grids before the
        # candidate step and the next pass allocate theirs
        del outcome, d, pc
        cand = candidate_step(state, w, g, c, model, lip)
        h_prop = eval_h_delta(proposal, w, g, c, model)
        h_cand = eval_h_delta(cand, w, g, c, model)
        sufficient = h_prop <= h_cand
        state = proposal if sufficient else cand
        del proposal, cand, w
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
