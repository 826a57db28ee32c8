"""``evaluate()`` — the one front door for judging a schedule.

Every consumer in the repo (CLI, experiment runner, differential fuzzer,
benchmarks, examples) asks the same question through this function; the
dispatcher (:mod:`repro.evaluate.dispatch`) picks the cheapest engine
that serves the request and the answer always arrives as an
:class:`~repro.evaluate.report.EvaluationReport` with engine provenance.

The legacy entry points (``estimate_makespan``, ``expected_makespan_*``,
``completion_curve``, ``exact_completion_curve``, ``state_distribution``)
remain as deprecation shims for external callers; internally only this
module talks to the engine layer (enforced by
``suu lint --rule legacy-callsite``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import Regimen, ScheduleResult
from ..errors import CensoredEstimateWarning, ValidationError, warn_censored
from ..sim.exact.lattice import DEFAULT_MAX_STATES
from .dispatch import Route, schedule_kind, select_route
from .report import EvaluationReport
from .request import EvaluationRequest

__all__ = ["evaluate"]


def evaluate(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest | None = None,
    **kwargs,
) -> EvaluationReport:
    """Evaluate ``schedule`` on ``instance`` under the Def 2.1 model.

    Either pass a pre-built :class:`EvaluationRequest`, or keyword
    arguments that construct one (``metrics=``, ``mode=``, ``reps=``,
    ``seed=``, ``workers=``, ...; see the request class for the full
    list).  ``schedule`` may be any schedule kind — cyclic, finite
    oblivious, regimen, adaptive policy — or a
    :class:`~repro.core.schedule.ScheduleResult` (unwrapped), or a solver
    *name* from the capability-typed registry
    (:mod:`repro.algorithms.registry`): ``evaluate(inst, "serial")``
    schedules with that solver first (default constants, deterministic
    rng derived from the request seed — the experiment runner's solver
    stream) and then judges the result.

    Routing (``mode="auto"``): exact sparse Markov when the schedule has
    a finite chain within the ``max_states`` guard, batched/lockstep
    Monte Carlo otherwise, sharded parallel MC when ``workers`` /
    ``executor`` / ``shards`` is set.  ``mode="exact"`` / ``mode="mc"``
    force a route.  With ``mode="mc"`` and an integer ``seed`` the
    samples are bitwise identical to the legacy single-stream estimator
    at the same seed.

    Censoring surfaces uniformly: any route whose replications hit the
    step budget emits one :class:`~repro.errors.CensoredEstimateWarning`
    (or raises with ``require_finished=True``), and an exact solve past
    its guard raises :class:`~repro.errors.ExactSolverLimitError` —
    identically for every schedule kind and backend.
    """
    # The stopwatch starts before request construction/validation so
    # wall_time_s covers the whole call, not just the post-dispatch body.
    sw = obs.stopwatch()
    tracing = obs.enabled()
    counters_before = obs.counters() if tracing else {}
    with obs.span("evaluate") as root:
        if isinstance(schedule, ScheduleResult):
            schedule = schedule.schedule
        with obs.span("evaluate.validate"):
            if request is None:
                request = EvaluationRequest(**kwargs)
            elif kwargs:
                raise ValidationError(
                    "pass either a pre-built EvaluationRequest or keyword "
                    f"arguments, not both (got request= plus {sorted(kwargs)})"
                )
            if not isinstance(schedule, str):
                _validate_table(instance, schedule)
        if isinstance(schedule, str):
            # Solver-name sugar: schedule through the registry with a
            # deterministic solver stream (the experiment runner's
            # derivation), decoupled from the simulation stream.  Its own
            # span, so a long build is not booked as validation.
            with obs.span("evaluate.solve", solver=schedule):
                from ..algorithms.registry import resolve_solver

                base = request.seed if isinstance(request.seed, int) else 0
                schedule = resolve_solver(schedule).build(
                    instance, rng=np.random.default_rng((base, 0xA16))
                ).schedule
                _validate_table(instance, schedule)
        with obs.span("evaluate.dispatch") as dspan:
            route = select_route(instance, schedule, request)
            dspan.set(
                mode=route.mode,
                engine=route.engine,
                sharded=route.sharded,
                reason=route.reason,
                exact_state_cost=route.cost,
                max_states_cap=route.cap,
            )
        root.set(
            schedule_kind=schedule_kind(schedule),
            metrics=list(request.metrics),
            mode=route.mode,
            engine=route.engine,
        )
        with obs.span("evaluate.run", mode=route.mode, engine=route.engine):
            if route.mode == "exact":
                report = _run_exact(instance, schedule, request, route)
            else:
                report = _run_mc(instance, schedule, request, route)
    report.wall_time_s = sw.elapsed_s
    if tracing:
        report.telemetry = {
            "span": root.to_dict(),
            "counters": obs.counters_since(counters_before),
        }
    return report


def _validate_table(instance: SUUInstance, schedule) -> None:
    if hasattr(schedule, "validate_against"):  # oblivious / cyclic tables
        schedule.validate_against(instance)


# ----------------------------------------------------------------------
# Exact route
# ----------------------------------------------------------------------
def _run_exact(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest,
    route: Route,
) -> EvaluationReport:
    # The facade is the one sanctioned internal caller of the engine layer.
    from ..sim.markov import (
        _exact_completion_curve,
        _expected_makespan_cyclic,
        _expected_makespan_regimen,
        _state_distribution,
    )

    max_states = (
        request.max_states if request.max_states is not None else DEFAULT_MAX_STATES
    )
    makespan = None
    curve = None
    dist = None
    if "makespan" in request.metrics:
        if isinstance(schedule, Regimen):
            makespan = _expected_makespan_regimen(
                instance, schedule, max_states=max_states, engine=route.engine
            )
        else:
            makespan = _expected_makespan_cyclic(
                instance, schedule, max_states=max_states, engine=route.engine
            )
    if "completion_curve" in request.metrics:
        curve = _exact_completion_curve(
            instance,
            schedule,
            request.horizon,
            max_states=max_states,
            engine=route.engine,
        )
    if "state_distribution" in request.metrics:
        dist = _state_distribution(
            instance,
            schedule,
            request.horizon,
            max_states=max_states,
            engine=route.engine,
        )
    return EvaluationReport(
        mode="exact",
        engine=f"markov-{route.engine}",
        schedule_kind=schedule_kind(schedule),
        makespan=makespan,
        min=makespan,
        max=makespan,
        completion_curve=curve,
        state_distribution=dist,
        reason=route.reason,
        request=request,
    )


# ----------------------------------------------------------------------
# Monte Carlo route
# ----------------------------------------------------------------------
def _mc_curve(samples: np.ndarray, truncated: int, horizon: int) -> np.ndarray:
    """Empirical completion CDF — the estimator's shared implementation.

    Delegates to :func:`repro.sim.montecarlo.censored_completion_cdf`, so
    the facade's curve is bitwise the legacy ``completion_curve`` by
    construction (one implementation, not two kept in sync).
    """
    from ..sim.montecarlo import censored_completion_cdf

    return censored_completion_cdf(samples, truncated, horizon)


def _precision_met(
    mean: float, std_err: float, request: EvaluationRequest
) -> bool:
    half = 1.96 * std_err
    if request.target_ci is not None and half > request.target_ci:
        return False
    if request.rtol is not None and half > request.rtol * max(abs(mean), 1e-12):
        return False
    return True


def run_max_steps_for(request: EvaluationRequest) -> int:
    """The step budget an MC run observes.

    A curve-only run observes exactly ``horizon`` steps, like the legacy
    ``completion_curve``; once makespan is also requested the request's
    own budget governs and the curve is the CDF's first ``horizon``
    points (the validator guarantees ``max_steps >= horizon`` then).
    """
    if "completion_curve" in request.metrics and "makespan" not in request.metrics:
        return request.horizon
    return request.max_steps


def _run_mc(
    instance: SUUInstance,
    schedule,
    request: EvaluationRequest,
    route: Route,
) -> EvaluationReport:
    from ..sim.montecarlo import _estimate_makespan, sample_estimate

    run_max_steps = run_max_steps_for(request)
    need_samples = (
        request.keep_samples
        or "completion_curve" in request.metrics
        or request.wants_precision
    )

    def run(reps: int, rng):
        # Censoring is re-emitted once by mc_report with the correct
        # attribution; the engine-layer warning is suppressed.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CensoredEstimateWarning)
            return _estimate_makespan(
                instance,
                schedule,
                reps=reps,
                rng=rng,
                max_steps=run_max_steps,
                keep_samples=need_samples,
                require_finished=request.require_finished,
                engine=route.engine,
                workers=request.workers,
                executor=request.executor,
                shards=request.shards,
            )

    if not request.wants_precision:
        # Single round: the raw seed passes straight through, so samples
        # are bitwise the legacy path's at the same seed — including the
        # sharded route, whose root-seed derivation distinguishes an
        # integer (reproducible passthrough) from a generator (one draw).
        with obs.span("mc.round", round=1, reps=request.reps):
            est = run(request.reps, request.seed)
        return mc_report(schedule, request, route, est)
    # Adaptive precision: double the replication count until the CI
    # half-width meets the target or the budget is spent.  One generator
    # feeds every round, so rounds draw fresh independent replications;
    # the report emits one merged warning.
    rng = as_rng(request.seed)
    budget = request.effective_budget()
    chunks: list[np.ndarray] = []
    truncated = 0
    rounds = 0
    next_reps = request.reps
    while True:
        with obs.span("mc.round", round=rounds + 1, reps=next_reps):
            est = run(next_reps, rng)
        rounds += 1
        chunks.append(np.asarray(est.samples))
        truncated += est.truncated
        merged = sample_estimate(np.concatenate(chunks), truncated, est.engine_used)
        met = _precision_met(merged.mean, merged.std_err, request)
        if met or merged.n_reps >= budget:
            return mc_report(schedule, request, route, merged, rounds=rounds, met=met)
        next_reps = min(merged.n_reps, budget - merged.n_reps)


def mc_report(
    schedule,
    request: EvaluationRequest,
    route: Route,
    est,
    rounds: int = 1,
    met: bool | None = None,
) -> EvaluationReport:
    """The MC report for ``est`` (a :class:`~repro.sim.montecarlo.MakespanEstimate`).

    The one report builder of the MC route, shared by :func:`evaluate`
    and the server's lockstep batch groups: it emits the one censoring
    warning (blaming the caller of ``evaluate()``), cuts the completion
    curve, and fills the report fields.
    """
    run_max_steps = run_max_steps_for(request)
    if est.truncated:
        warn_censored(est.truncated, est.n_reps, run_max_steps, stacklevel=4)
    curve = None
    if "completion_curve" in request.metrics:
        # Full-budget CDF truncated to the requested horizon; for a
        # curve-only request run_max_steps == horizon and this is exactly
        # the legacy completion_curve.
        curve = _mc_curve(est.samples, est.truncated, run_max_steps)[: request.horizon]
    # Like the exact route, the makespan fields are populated only when
    # the metric was requested: a curve-only run observes just `horizon`
    # steps, so its sample mean is E[min(makespan, horizon)] — a number
    # that must not masquerade as the expected makespan.
    wants_makespan = "makespan" in request.metrics
    return EvaluationReport(
        mode="mc",
        engine=est.engine_used,
        schedule_kind=schedule_kind(schedule),
        makespan=est.mean if wants_makespan else None,
        std_err=est.std_err if wants_makespan else 0.0,
        n_reps=est.n_reps,
        truncated=est.truncated,
        min=est.min if wants_makespan else None,
        max=est.max if wants_makespan else None,
        samples=est.samples if request.keep_samples else None,
        completion_curve=curve,
        sharded=route.sharded,
        rounds=rounds,
        precision_met=met,
        reason=route.reason,
        request=request,
    )
