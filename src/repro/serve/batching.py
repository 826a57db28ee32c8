"""Cross-request Monte Carlo batching with a bitwise-parity guarantee.

Many clients asking about the same instance (under any schedule whose
MC route is the lockstep engine) can share per-step work.  This module
only decides who may share: the run itself is the one lockstep kernel,
:func:`repro.sim.montecarlo.run_lockstep`, which solo ``evaluate()``
calls with a single member.  Each member keeps its own ``as_rng(seed)``
generator, and the kernel shares only the RNG-free eligibility
reduction, so a batched member's report is bitwise its solo report.
Reports are built by the facade's own MC report builder.

Batch *compatibility* (one group = one lockstep run) follows the
server's grouping key: same instance content hash, same schedule kind,
same step convention (the run's observed step budget).  Within a group,
schedules and seeds may differ freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.schedule import CyclicSchedule, ObliviousSchedule
from ..evaluate.dispatch import Route, schedule_kind
from ..evaluate.facade import mc_report, run_max_steps_for
from ..evaluate.report import EvaluationReport
from ..evaluate.request import EvaluationRequest
from ..sim.montecarlo import LockstepRun, run_lockstep, sample_estimate
from .keys import instance_hash

__all__ = ["BatchMember", "batchable_request", "batch_signature", "run_batched_group"]

#: Metrics the lockstep group runner can assemble (everything else routes
#: solo through ``evaluate()``).
_BATCHABLE_METRICS = frozenset({"makespan", "completion_curve"})


def batchable_request(request: EvaluationRequest, route: Route, schedule) -> bool:
    """Can this (request, route, schedule) join a lockstep batch group?

    Exactly the envelope in which solo ``evaluate()`` would run the
    vectorized ``oblivious-lockstep`` engine in a single round: plain MC
    (no adaptive precision, no shards), ``engine="auto"``, an
    oblivious/cyclic table, batchable metrics, and censoring reported
    rather than escalated (``require_finished`` raises mid-run, which a
    shared run cannot unwind for one member).
    """
    return (
        route.mode == "mc"
        and not route.sharded
        and route.engine == "auto"
        and not request.wants_precision
        and not request.require_finished
        and isinstance(schedule, (ObliviousSchedule, CyclicSchedule))
        and set(request.metrics) <= _BATCHABLE_METRICS
    )


def batch_signature(
    instance: SUUInstance, schedule, request: EvaluationRequest
) -> tuple[str, str, int]:
    """Grouping key: requests with equal signatures share one lockstep run."""
    return (
        instance_hash(instance),
        schedule_kind(schedule),
        run_max_steps_for(request),
    )


@dataclass
class BatchMember:
    """One request's slot in a batched lockstep run."""

    instance: SUUInstance
    schedule: ObliviousSchedule | CyclicSchedule
    request: EvaluationRequest
    route: Route


def run_batched_group(members: list[BatchMember]) -> list[EvaluationReport]:
    """Run every member through one shared lockstep run.

    Returns one :class:`EvaluationReport` per member, in input order,
    field-for-field identical to what solo ``evaluate()`` would have
    produced at the same seed (``wall_time_s`` excepted — the server
    stamps it) — including one
    :class:`~repro.errors.CensoredEstimateWarning` per censored member,
    in the facade's canonical wording.
    """
    if not members:
        return []
    runs = [
        LockstepRun(
            m.schedule, m.request.reps, as_rng(m.request.seed), run_max_steps_for(m.request)
        )
        for m in members
    ]
    with obs.span(
        "serve.batch.run",
        members=len(members),
        total_reps=sum(run.reps for run in runs),
        horizon=max(run.horizon for run in runs),
    ):
        results = run_lockstep(members[0].instance, runs)
    reports = []
    for member, (samples, finished) in zip(members, results):
        truncated = int((~finished).sum())
        obs.add("mc.reps", samples.size)
        obs.add("mc.truncated", truncated)
        est = sample_estimate(samples, truncated, "oblivious-lockstep")
        reports.append(mc_report(member.schedule, member.request, member.route, est))
    return reports
