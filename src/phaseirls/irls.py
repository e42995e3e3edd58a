"""Outer reweighting loop with warm-started PCG and a descent safeguard.

Each outer iteration refreshes the closed-form weights and runs a budgeted
PCG solve on the resulting weighted least squares problem, warm-started from
the previous estimate.  For fixed weights each slack has a closed-form
minimizer given u, so the solve runs on the reduced weighted Poisson system
in u alone, which ``reduced_system`` writes (map
``kernels.weighted_laplacian``), preconditioned by the spectral Sylvester
solve.  The proposal is u with its optimal slacks, which ``propose`` writes
over the state's from the arc misfit K u - g, formed once per proposal.  The
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

From the same misfit ``propose`` scores the proposal: h under the weights
of the solve, its refreshed weights and h under them (sum(w) plus the one
coupling penalty), so an accepted proposal carries both into the next outer
iteration; ``update_weights`` and ``eval_h_delta_refreshed`` run only at the
start and after a fallback.  The loop runs in 13 grids allocated at set-up
and passed by keyword to every collaborator that writes one: two system
vectors (state and candidate), the ``phase.ArcField`` pairs ``w`` and
``wr``, the right-hand side, the search direction and ``zap``, the output
of both the CG map and the preconditioner.
A buffer that is dead for part of an iteration serves as scratch there: the
state's slacks, dead from the candidate step until the proposal's slacks are
written, are the arc scratch of the reduced system and the Sylvester
transform grid, and after the solve the spent right-hand side and ``zap``
are the arc scratch of ``propose`` and the evaluations.  An accepted proposal swaps ``w``
and ``wr``, and a fallback copies the candidate into the state, so every
role keeps its buffer and the loop allocates no grid-sized temporaries.
``start_state`` writes the start, u = 0 with slacks -g.  ``next_budget``
alone reads the CG budget or the stop from the records and the state's h:
keep it while the weight refresh gains more than ``rel_improvement_tol``;
on a stall, stop right after a grow, at ``MAX_CG_ITERS``, or after a solve
that ran no CG iteration and took no fallback (its proposal is the fixed
point of the reweighting); otherwise grow the budget geometrically.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels, preconditioner
from .objective import (
    ModelParams,
    SystemVector,
    candidate_step,
    eval_h_delta,
    eval_h_delta_refreshed,
    lipschitz_constant,
    propose,
    reduced_system,
    update_weights,
)
from .pcg import pcg_solve
from .phase import ArcField, WeightField, wrapped_gradients
from .preconditioner import build_spectral_cache

# not called here; names of this module that the traced benchmark run rebinds
from .diagnostics import apply_preconditioner, apply_system, build_preconditioner, build_rhs  # noqa: F401

__all__ = [
    "IrlsParams",
    "IterationRecord",
    "IrlsTrace",
    "UnwrapResult",
    "next_budget",
    "start_state",
    "unwrap",
]

# the CG budget cap of the growth rule, and the PCG relative residual tolerance
MAX_CG_ITERS = 10_000
CG_REL_TOL = 1e-10


@dataclass(frozen=True)
class IrlsParams:
    """Outer-loop controls, each with its ``phaseirls unwrap`` flag.

    ``max_iter_cg_start`` (``--cg-start``): the first CG budget; ``rel_improvement_tol``
    (``--eps-tol``): the gain that keeps the budget; ``cg_growth_factor`` (``--cg-growth``):
    the budget's growth on a stall; ``max_outer_iters`` (``--max-outer``): the outer cap.
    """

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
    ``ritz_min`` and ``ritz_max`` are the solve's Ritz extremes (``PcgOutcome``), None
    when it ran no CG iteration and by default.
    """

    k: int
    m_cg: int
    delta_rel: float | None
    h_delta: float
    cg_iters: int
    fallback: bool
    cg_converged: bool
    cg_rel_residual: float
    ritz_min: float | None = None
    ritz_max: float | None = None


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
class UnwrapResult:
    """Estimate and slacks (views into one buffer) plus the trace.

    ``stop_reason`` is ``"heuristic"`` when ``next_budget`` stopped the loop (a stall
    right after a grow, at ``MAX_CG_ITERS``, or after a solve that ran no CG iteration
    and took no fallback) and ``"max_outer"`` when ``max_outer_iters`` ran out first.
    """

    u: np.ndarray
    vv: np.ndarray
    vh: np.ndarray
    trace: IrlsTrace
    stop_reason: str


def start_state(g, *, out):
    """Write the loop's start, u = 0 with slacks -g, into the ``SystemVector`` ``out``."""
    out.u[...] = 0.0
    np.negative(g.v, out=out.vv)
    np.negative(g.h, out=out.vh)
    return out


def next_budget(records, h_state, params: IrlsParams):
    """``(delta_rel, m_cg)`` of the next outer iteration; ``m_cg`` is None where the loop stops.

    ``h_state`` is h at the state under its refreshed weights; the last record holds h at
    this state under the previous weights, and ``delta_rel`` is the relative drop from it to
    ``h_state``.  In order: no records give ``(None, max_iter_cg_start)``; the budget is
    kept while ``delta_rel > rel_improvement_tol``; a stall stops the loop right after a
    budget grow, at ``MAX_CG_ITERS``, or after a solve that ran no CG iteration and took no
    fallback; otherwise the budget grows by ``cg_growth_factor``, rounded up and capped.
    """
    if not records:
        return None, params.max_iter_cg_start
    last = records[-1]
    # arc-free grids have an identically zero objective, so there is nothing to improve
    delta_rel = 0.0 if last.h_delta == 0 else (last.h_delta - h_state) / last.h_delta
    if delta_rel > params.rel_improvement_tol:
        return delta_rel, last.m_cg
    grew = len(records) >= 2 and records[-2].m_cg != last.m_cg
    # a solve that ran no CG iteration already solved this system: a fixed point
    if grew or last.m_cg >= MAX_CG_ITERS or (last.cg_iters == 0 and not last.fallback):
        return delta_rel, None
    # capped before the ceiling, so a huge factor cannot overflow to inf
    return delta_rel, math.ceil(min(params.cg_growth_factor * last.m_cg, MAX_CG_ITERS))


def unwrap(x, c: WeightField | None = None, model: ModelParams | None = None,
           params: IrlsParams | None = None):
    """Unwrap a wrapped phase grid; returns the mean-zero estimate and slacks.

    Parameters
    ----------
    x : ndarray
        Wrapped phase grid with values in [0, 2*pi).  Its neighbor
        differences are reduced into [-pi, pi); ``x`` is only read, and
        ``unwrap`` drops its reference once they exist, so an input that the
        caller does not keep is freed before the loop allocates its grids.
    c : WeightField, optional
        Arc weights; ``WeightField.uniform`` when omitted.
    model : ModelParams, optional
        Penalty and smoothing parameters.
    params : IrlsParams, optional
        Outer-loop and CG budget controls.

    ``c``, ``model`` or ``params`` of any other type, even an ``ArcField`` for
    ``c``, raises ``TypeError`` before any work.
    """
    for name, value, kind in (("c", c, WeightField), ("model", model, ModelParams),
                              ("params", params, IrlsParams)):
        if value is not None and not isinstance(value, kind):
            raise TypeError(f"{name} must be {kind.__name__} or None, got {type(value).__name__}")
    # validates x: a finite, non-empty 2-D grid with values in [0, 2*pi).  The
    # loop reads only the gradients, so x is dropped: a caller that keeps no
    # reference of its own frees the input before the loop's grids exist
    g = wrapped_gradients(x)
    del x
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

    # every grid of the outer loop, allocated once.  wr holds the candidate's
    # slack products d v, then the reduced weights and then the proposal's
    # refreshed weights, which an accepted proposal swaps into w; zap holds
    # the output of the CG map and of the preconditioner.
    cand = SystemVector.zeros(n, m)
    dim = cand.data.size
    # the state's buffer also holds the Sylvester scratch grid past u: on a
    # single row or column the slacks alone are one element short of it
    state_buf = np.zeros(max(dim, 2 * n * m))
    state = start_state(g, out=SystemVector.from_buffer(state_buf[:dim], n, m))
    w = ArcField.empty(n, m)
    wr = ArcField.empty(n, m)
    rhs = np.empty((n, m))
    zap = np.empty((n, m))
    direction = np.empty((n, m))
    # scratch while the state's slacks are dead: the arcs of the reduced
    # system and the Sylvester transform grid
    slack_flux = ArcField(state.vv, state.vh)
    transform = state_buf[n * m : 2 * n * m].reshape(n, m)
    # scratch of propose and the evaluations: rhs and zap are dead after the solve
    # (their norms are in its outcome) until reduced_system writes rhs
    spent_flux = ArcField(
        rhs.reshape(-1)[: (n - 1) * m].reshape(n - 1, m),
        zap.reshape(-1)[: n * (m - 1)].reshape(n, m - 1),
    )
    trace = IrlsTrace()
    stop_reason = "max_outer"
    # h at the state under its refreshed weights w; None when w is not yet refreshed
    h_state = None

    for k in range(params.max_outer_iters):
        if h_state is None:
            update_weights(state, c, model, out=w)
            # under refreshed weights h is sum(w) plus the coupling penalty
            h_state = eval_h_delta_refreshed(state, w, g, model, scratch=spent_flux)
        delta_rel, m_cg = next_budget(trace.records, h_state, params)
        if m_cg is None:
            stop_reason = "heuristic"
            break

        # the candidate needs only the state, so it is formed before the
        # reduced weights and the solve take over wr and the state's slacks
        _, grad_sq = candidate_step(state, w, g, c, model, lip, out=cand, scratch=wr)

        reduced_system(c, w, g, model, weights=wr, rhs=rhs, flux=slack_flux)
        # the solve warm-starts from the state's u and iterates in it; the
        # state is not needed any more, and rhs ends as the residual
        outcome = pcg_solve(
            apply_a=lambda v: kernels.weighted_laplacian(v, *wr, *slack_flux, zap),
            apply_m=lambda r: preconditioner.sylvester_solve(
                r, model, cache, out=zap, scratch=transform
            ),
            b=rhs,
            x=state.u,
            max_iters=m_cg,
            rel_tol=CG_REL_TOL,
            direction=direction,
        )
        # the proposal: u from the solve with its optimal slacks; the reduced
        # weights are spent, so the proposal's refreshed weights replace them
        h_prop, h_next = propose(state, g, c, w, model, weights=wr, scratch=spent_flux)
        # the candidate's h is at least h_state - grad_sq / lip, so a proposal
        # at or below that bound beats it.  Both tests are written as negations
        # so that a NaN proposal value also falls back
        fallback = not h_prop <= h_state - grad_sq / lip
        if fallback:
            h_cand = eval_h_delta(cand, w, g, c, model, scratch=spent_flux)
            fallback = not h_prop <= h_cand
        if fallback:
            state.data[...] = cand.data
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
                cg_iters=outcome.iterations,
                fallback=fallback,
                cg_converged=outcome.converged,
                cg_rel_residual=outcome.rel_residual,
                ritz_min=outcome.ritz_min,
                ritz_max=outcome.ritz_max,
            )
        )

    return UnwrapResult(
        u=state.u, vv=state.vv, vh=state.vh, trace=trace, stop_reason=stop_reason
    )
