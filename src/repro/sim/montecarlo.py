"""Monte Carlo estimation of expected makespan.

For oblivious (and cyclic) schedules all replications share the same
assignment per step, so the whole replication batch advances in lockstep
with numpy array operations — per the hpc-parallel guide, the hot loop is
over *steps* only, never over replications or jobs.  Deterministic adaptive
policies and regimens run on the frontier-memoized batched engine
(:mod:`repro.sim.batch`); randomized policies fall back to the scalar
engine one replication at a time.  ``docs/architecture.md`` documents the
decision tree, and ``engine="scalar"``/``"batched"`` forces a path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._deprecation import warn_legacy
from .._util import as_rng
from ..core.instance import SUUInstance
from ..core.mass import assignment_success_prob
from ..core.schedule import CyclicSchedule, ObliviousSchedule
from ..errors import SimulationLimitError, ValidationError, warn_censored
from .batch import batchable, simulate_batch
from .engine import DEFAULT_MAX_STEPS, simulate

__all__ = ["MakespanEstimate", "estimate_makespan", "completion_curve"]


@dataclass
class MakespanEstimate:
    """Sample statistics of the makespan under repeated execution.

    ``truncated`` counts replications that hit the step budget before
    finishing; their (censored) makespans are included in the mean, so when
    ``truncated > 0`` the mean is a *lower* bound on the true expectation
    and callers should enlarge ``max_steps``.
    :func:`estimate_makespan` emits a :class:`~repro.errors.CensoredEstimateWarning`
    whenever that happens, so a biased mean cannot be read silently; pass
    ``require_finished=True`` to escalate censoring to an error instead.
    """

    mean: float
    std_err: float
    n_reps: int
    truncated: int
    min: float
    max: float
    samples: np.ndarray | None = None
    #: Which simulation path produced the samples:
    #: "oblivious-lockstep" | "batched" | "scalar".
    engine_used: str = "scalar"

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.std_err
        return (self.mean - half, self.mean + half)

    def __repr__(self) -> str:
        lo, hi = self.ci95
        extra = f", truncated={self.truncated}" if self.truncated else ""
        return (
            f"MakespanEstimate(mean={self.mean:.3f}, ci95=({lo:.3f}, {hi:.3f}), "
            f"reps={self.n_reps}{extra})"
        )


def _per_step_success(instance: SUUInstance, schedule) -> np.ndarray:
    """Per-step per-job one-step success probabilities for a schedule table.

    Entry ``(t, j)``: probability job ``j`` completes in step ``t`` given it
    is eligible and unfinished and the step-``t`` assignment is applied.
    A cyclic schedule's cycle rows follow its prefix rows.
    """
    if isinstance(schedule, ObliviousSchedule):
        tables = (schedule.table,)
    else:
        tables = (schedule.prefix.table, schedule.cycle.table)
    out = np.empty((sum(len(table) for table in tables), instance.n), dtype=np.float64)
    for t, assignment in enumerate(itertools.chain(*tables)):
        out[t] = assignment_success_prob(instance.p, assignment)
    return out


@dataclass
class LockstepRun:
    """One member of a lockstep run: a schedule judged on its own stream.

    ``reps`` replications of ``schedule`` draw from ``rng`` and are
    observed for at most ``max_steps`` steps; a finite oblivious table
    stops at its own end (:attr:`horizon`).
    """

    schedule: ObliviousSchedule | CyclicSchedule
    reps: int
    rng: np.random.Generator
    max_steps: int

    @property
    def horizon(self) -> int:
        if isinstance(self.schedule, ObliviousSchedule):
            return min(self.max_steps, self.schedule.length)
        return self.max_steps


class _Lane:
    """A run's rows of the stacked state plus its per-step tables."""

    __slots__ = (
        "rng", "reps", "horizon", "lo", "hi", "fin", "q", "active",
        "prefix_len", "cycle_len", "makespan", "done", "live",
    )

    def __init__(self, run: LockstepRun, lo: int, tables: tuple) -> None:
        self.rng, self.reps, self.horizon = run.rng, run.reps, run.horizon
        self.lo, self.hi = lo, lo + run.reps
        self.q, self.active = tables
        if isinstance(run.schedule, ObliviousSchedule):
            self.prefix_len, self.cycle_len = run.schedule.length, 0
        else:
            self.prefix_len = run.schedule.prefix_length
            self.cycle_len = run.schedule.cycle_length
        self.makespan = np.full(run.reps, run.max_steps, dtype=np.int64)
        self.done = np.zeros(run.reps, dtype=bool)
        self.live = self.horizon > 0


def run_lockstep(
    instance: SUUInstance, runs: list[LockstepRun]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simulate every run's replications in lockstep, stacked in one matrix.

    Returns ``(makespans, finished_flags)`` per run, in input order;
    unfinished replications report the censored step count ``max_steps``.

    The replications of all runs are the rows of one shared ``finished``
    matrix, but each run steps exactly as if it were alone: its own
    horizon, its own skip tests, and one ``rng.random((reps, n))`` draw
    on exactly the steps where one of its replications attempts a job.
    Its stream, and hence its samples, are bitwise those of a solo run.
    The one shared piece of work is the eligibility reduction
    ``finished @ pred_matrix``, computed at most once per step and only
    when some run reaches its attempt test.  It uses no RNG, row ``r`` of
    it depends on row ``r`` of ``finished`` alone, and its 0/1 sums are
    exact in float64, so neither sharing it nor skipping it changes a bit.
    """
    n = instance.n
    # Eligibility = all predecessors finished, counted by one matmul with
    # a dense 0/1 incidence matrix (n is small enough for (n, n)).
    pred_matrix = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        for u in instance.dag.predecessors(j):
            pred_matrix[u, j] = 1.0
    pred_counts = pred_matrix.sum(axis=0)
    has_preds = bool(pred_counts.any())

    # One success table, and its rows with any q > 0, per distinct schedule.
    tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    lanes: list[_Lane] = []
    lo = 0
    for run in runs:
        key = id(run.schedule)
        if key not in tables:
            q = _per_step_success(instance, run.schedule)
            tables[key] = (q, q.any(axis=1))
        lanes.append(_Lane(run, lo, tables[key]))
        lo += run.reps
    finished = np.zeros((lo, n), dtype=bool)
    for lane in lanes:
        lane.fin = finished[lane.lo : lane.hi]

    n_live = sum(lane.live for lane in lanes)
    for t in range(max((lane.horizon for lane in lanes), default=0)):
        if not n_live:
            break
        eligible = None
        for lane in lanes:
            if not lane.live:
                continue
            if t >= lane.horizon:
                lane.live = False
                n_live -= 1
                continue
            if t < lane.prefix_len:
                row = t
            else:
                row = lane.prefix_len + (t - lane.prefix_len) % lane.cycle_len
            if not lane.active[row]:
                continue
            fin = lane.fin
            q = lane.q[row]
            attempt = ~fin & (q > 0)
            if has_preds:
                if eligible is None:
                    eligible = finished.astype(np.float64) @ pred_matrix >= pred_counts
                attempt &= eligible[lane.lo : lane.hi]
            if not attempt.any():
                continue
            draws = lane.rng.random((lane.reps, n))
            fin |= attempt & (draws < q)
            just_done = ~lane.done & fin.all(axis=1)
            lane.makespan[just_done] = t + 1
            lane.done |= just_done
            if lane.done.all():
                lane.live = False
                n_live -= 1
    return [(lane.makespan, lane.done) for lane in lanes]


def sample_estimate(
    samples: np.ndarray, truncated: int, engine_used: str, keep_samples: bool = True
) -> MakespanEstimate:
    """Sample statistics of a finished run — the one place they are computed."""
    reps = samples.size
    values = samples.astype(np.float64)
    return MakespanEstimate(
        mean=float(values.mean()),
        std_err=float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        n_reps=reps,
        truncated=truncated,
        min=float(values.min()),
        max=float(values.max()),
        samples=samples if keep_samples else None,
        engine_used=engine_used,
    )


def _estimate_makespan(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    keep_samples: bool = False,
    require_finished: bool = False,
    engine: str = "auto",
    workers: int | None = None,
    executor=None,
    shards: int | None = None,
    _warn_stacklevel: int = 2,
) -> MakespanEstimate:
    """Estimate the expected makespan of ``schedule`` by Monte Carlo.

    Engine-layer implementation; first-party callers go through
    :func:`repro.evaluate.evaluate` (mode ``"mc"``), which delegates here
    unchanged — same streams, bitwise-identical samples at a fixed seed.
    ``_warn_stacklevel`` keeps the censoring warning attributed to the
    real caller when an extra frame (the public shim) sits in between.

    With ``engine="auto"`` (see ``docs/architecture.md``): oblivious and
    cyclic schedules use the vectorized lockstep path; deterministic
    adaptive policies and regimens use the batched frontier-memoized
    engine; randomized policies and anything else run through the scalar
    engine one replication at a time.  ``engine="scalar"`` forces the
    scalar reference engine for every schedule type; ``engine="batched"``
    forces :func:`repro.sim.batch.simulate_batch` (rejecting schedules it
    cannot batch).

    ``workers`` / ``executor`` / ``shards`` engage the sharded parallel
    backend (:mod:`repro.parallel`): replications split into independent
    :meth:`~numpy.random.SeedSequence.spawn`-seeded shards, each shard runs
    through this same engine routing, and per-shard moments merge into one
    estimate.  ``workers=N`` fans shards out to ``N`` worker processes
    (``executor="serial"`` runs the same shards in-process); the merged
    numbers are identical for every worker count at a fixed seed.  The
    sharded path draws its shard streams from a root seed, so it is
    statistically equivalent — not bitwise identical — to the default
    single-stream path.  Process execution ships ``(instance, schedule)``
    by pickle; closure-based adaptive policies must instead go through an
    :class:`~repro.experiments.spec.ExperimentSpec` (whose workers rebuild
    the schedule from the registry) or ``executor="serial"``.

    When any replication is censored at the step budget, a
    :class:`~repro.errors.CensoredEstimateWarning` is emitted (the mean is
    then only a lower bound); ``require_finished=True`` raises instead.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if engine not in ("auto", "batched", "scalar"):
        raise ValidationError(f"unknown engine {engine!r}; expected auto|batched|scalar")
    if workers is not None or executor is not None or shards is not None:
        # Imported lazily: repro.parallel.worker calls back into this module.
        from ..parallel.estimate import sharded_estimate

        return sharded_estimate(
            instance,
            schedule,
            reps=reps,
            rng=rng,
            max_steps=max_steps,
            engine=engine,
            executor=executor,
            workers=workers,
            shards=shards,
            keep_samples=keep_samples,
            require_finished=require_finished,
        )
    rng = as_rng(rng)
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        # Validate regardless of engine choice: the scalar loop would
        # otherwise fail deep inside with a raw IndexError.
        schedule.validate_against(instance)
    if engine == "auto" and isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        engine_used = "oblivious-lockstep"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            ((samples, finished_flags),) = run_lockstep(
                instance, [LockstepRun(schedule, reps, rng, max_steps)]
            )
        truncated = int((~finished_flags).sum())
    elif engine == "batched" or (engine == "auto" and batchable(schedule)):
        engine_used = "batched"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            batch = simulate_batch(
                instance, schedule, reps, rng=rng, max_steps=max_steps
            )
        samples = batch.makespans
        truncated = batch.truncated
    else:
        engine_used = "scalar"
        with obs.span("mc.engine", engine=engine_used, reps=reps):
            samples = np.empty(reps, dtype=np.int64)
            truncated = 0
            for r in range(reps):
                res = simulate(instance, schedule, rng=rng, max_steps=max_steps)
                if res.finished:
                    samples[r] = res.makespan
                else:
                    samples[r] = max_steps
                    truncated += 1
    obs.add("mc.reps", reps)
    obs.add("mc.truncated", truncated)
    if require_finished and truncated:
        raise SimulationLimitError(
            f"{truncated}/{reps} replications hit the {max_steps}-step budget"
        )
    if truncated:
        warn_censored(truncated, reps, max_steps, stacklevel=_warn_stacklevel)
    return sample_estimate(samples, truncated, engine_used, keep_samples)


def estimate_makespan(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    keep_samples: bool = False,
    require_finished: bool = False,
    engine: str = "auto",
    workers: int | None = None,
    executor=None,
    shards: int | None = None,
) -> MakespanEstimate:
    """Deprecated shim over :func:`_estimate_makespan`.

    Use :func:`repro.evaluate.evaluate` — ``evaluate(instance, schedule,
    mode="mc", seed=s)`` returns bitwise-identical samples plus engine
    provenance, and ``mode="auto"`` upgrades small regimen/cyclic cases
    to the exact Markov answer for free.
    """
    warn_legacy("repro.sim.estimate_makespan")
    return _estimate_makespan(
        instance,
        schedule,
        reps=reps,
        rng=rng,
        max_steps=max_steps,
        keep_samples=keep_samples,
        require_finished=require_finished,
        engine=engine,
        workers=workers,
        executor=executor,
        shards=shards,
        _warn_stacklevel=3,  # skip this shim frame: blame the caller's line
    )


def censored_completion_cdf(
    samples: np.ndarray, truncated: int, horizon: int
) -> np.ndarray:
    """Empirical completion CDF from makespan samples (1-based steps).

    The one implementation of the censoring-aware arithmetic, shared by
    :func:`_completion_curve` and the evaluation front door so the two
    stay bitwise identical: replications censored at the budget sit at
    ``horizon`` only because observation stopped there, so they are
    subtracted from the final bin and the last point reports the
    *finished* fraction.
    """
    counts = np.bincount(samples, minlength=horizon + 1)[1:]
    counts[horizon - 1] -= truncated
    return np.cumsum(counts, dtype=np.float64) / samples.size


def _completion_curve(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = 10_000,
) -> np.ndarray:
    """Empirical ``Pr[all jobs done by step t]`` for ``t = 1..max_steps``.

    Returns an array of length ``max_steps``; useful for plotting the
    completion CDF of competing schedules.

    Replications censored at the step budget are *not done* at any
    ``t <= max_steps`` — their samples sit at ``max_steps`` only because
    that is where observation stopped — so the final point reports the
    finished fraction, not 1.0.  (A run that genuinely finishes in step
    ``max_steps`` still counts there; the two are distinguished by the
    estimate's ``truncated`` counter, which only covers unfinished runs.)
    """
    if max_steps < 1:
        raise ValidationError("completion_curve needs max_steps >= 1")
    rng = as_rng(rng)
    est = _estimate_makespan(
        instance, schedule, reps=reps, rng=rng, max_steps=max_steps, keep_samples=True
    )
    assert est.samples is not None
    return censored_completion_cdf(est.samples, est.truncated, max_steps)


def completion_curve(
    instance: SUUInstance,
    schedule,
    reps: int = 200,
    rng: np.random.Generator | int | None = None,
    max_steps: int = 10_000,
) -> np.ndarray:
    """Deprecated shim over :func:`_completion_curve`.

    Use ``repro.evaluate.evaluate(instance, schedule, mode="mc",
    metrics="completion_curve", horizon=T, seed=s)`` — the returned
    report's ``completion_curve`` is bitwise identical at the same seed.
    """
    warn_legacy("repro.sim.completion_curve")
    return _completion_curve(
        instance, schedule, reps=reps, rng=rng, max_steps=max_steps
    )
