"""serve-mix: an open loop against ``EvaluationServer.submit`` in process.

One asyncio generator shares the server's event loop and sends a fixed,
seeded stream of requests on a schedule, whatever the server's state, so
a stall shows as lateness and a growing backlog as a drop in completed
requests per second.  Latency is measured from each request's *due* time.

Every pass replays one fixed plan: the same arrivals (``MIX``:
instances, schedules and Monte Carlo seeds from fixed streams) in the
same order at the same times, with Poisson gaps rescaled to span exactly
``PASS_WINDOW_S`` (a Poisson process conditioned on the time of its last
arrival).  Every pass runs on a fresh server, so the cache and the dedup
table start empty and every pass computes the same answers.  The plan
does not depend on the workload seed, because the arrival pattern sets
the tail latency: one pass's p90 moved from 52 to 134 ms between two
patterns.  The seed sets only which served reports are re-checked
against solo ``evaluate()``.

The rate, 100 requests per 3.9 s (about 26 req/s), is half the ~52 req/s
at which this mix's p90 latency doubled in trial runs on two cores; a
flood of the mix completes about 115 req/s, at p50 latencies near 1 s.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

import repro
from repro.algorithms.registry import resolve_solver
from repro.errors import AdmissionError, ReproError
from repro.evaluate import EvaluationRequest
from repro.serve import EvaluationServer, ServerConfig

from harness import CheckError, answer, require
from workloads import fixed_rng, instance

CONFIG = ServerConfig(workers=2, cache_dir=None)

PASS_WINDOW_S = 3.9
BURST = 4  # batchable MC requests per burst, one instance, distinct seeds
MC_REPS = 96
# MC requests rotate over several instances of one size.
MC_INSTANCES = 4
#: Arrival kinds of one pass and how many of each.
MIX = {"burst": 13, "duplicate": 15, "exact_cyclic": 15, "exact_regimen": 3, "named_mc": 15}
SAMPLE_PER_KIND = 2  # served reports re-checked against solo evaluate()


@dataclass(frozen=True)
class Request:
    kind: str
    instance: repro.SUUInstance
    schedule: object
    request: EvaluationRequest


#: One arrival: the requests sent together at one due time.
Arrival = tuple[Request, ...]


@dataclass
class Outcome:
    request: Request
    due: float
    done: float | None = None
    envelope: dict | None = None
    error: str | None = None


@dataclass
class PassResult:
    outcomes: list[Outcome]  # in arrival-index order, whatever the send order
    late_s: list[float]
    wall_s: float
    metrics: dict

    @property
    def completed(self) -> int:
        return sum(o.error is None for o in self.outcomes)

    def ops_per_s(self) -> float:
        return self.completed / self.wall_s


def build_mix() -> list[Arrival]:
    """Set-up: instances, pre-built schedules and the arrivals of one pass."""
    mc_pool = []
    for k in range(MC_INSTANCES):
        mc_inst = instance(101 + k, 24, 4, "layered")
        mc_sched = repro.solve(mc_inst, rng=fixed_rng(105 + k), allow_fallback=True).schedule
        mc_pool.append((mc_inst, mc_sched))
    cyclic = []
    for k in range(3):
        c_inst = instance(110 + k, 10, 3, "chains")
        cyclic.append((c_inst, resolve_solver("round_robin").build(c_inst).schedule))
    regimen_inst = instance(120, 12, 4, "out_tree")

    def mc(seed_):
        return EvaluationRequest(mode="mc", reps=MC_REPS, seed=seed_)

    arrivals: list[Arrival] = []
    dup_seed = 10_000
    next_seed = dup_seed + 1
    for kind, count in MIX.items():
        for i in range(count):
            mc_inst, mc_sched = mc_pool[i % MC_INSTANCES]
            if kind == "burst":
                arrival = tuple(
                    Request(kind, mc_inst, mc_sched, mc(next_seed + b)) for b in range(BURST)
                )
                next_seed += BURST
            elif kind == "duplicate":
                arrival = (Request(kind, mc_inst, mc_sched, mc(dup_seed)),)
            elif kind == "exact_cyclic":
                c_inst, c_sched = cyclic[i % len(cyclic)]
                arrival = (Request(kind, c_inst, c_sched, EvaluationRequest(mode="exact")),)
            elif kind == "exact_regimen":
                arrival = (Request(kind, regimen_inst, "state_round_robin",
                                   EvaluationRequest(mode="exact", seed=0)),)
            else:  # named_mc: a solver name built inside submit, then MC
                arrival = (Request(kind, mc_inst, "round_robin", mc(next_seed)),)
                next_seed += 1
            arrivals.append(arrival)
    return arrivals


def arrival_plan(count: int) -> list[tuple[float, int]]:
    """The (due offset, arrival index) pairs of every pass, in time order."""
    rng = fixed_rng(99)
    order = rng.permutation(count)
    gaps = rng.exponential(1.0, size=count)
    gaps[0] = 0.0
    at = np.cumsum(gaps) * (PASS_WINDOW_S / gaps.sum())
    return [(float(t), int(i)) for t, i in zip(at, order)]


async def _one(server: EvaluationServer, out: Outcome) -> None:
    r = out.request
    try:
        out.envelope = await server.submit(r.instance, r.schedule, r.request)
    except AdmissionError as exc:
        out.error = f"refused: {exc}"
    except ReproError as exc:
        out.error = f"failed: {exc}"
    out.done = time.perf_counter()
    if out.error is None and out.envelope["report"].get("truncated"):
        out.error = "censored estimate"


async def run_pass(mix: list[Arrival], plan: list[tuple[float, int]]) -> PassResult:
    """Send ``mix`` on ``plan`` to a fresh server; wait for every reply."""
    slots: list[list[Outcome]] = [[] for _ in mix]
    async with EvaluationServer(CONFIG) as server:
        tasks, late = [], []
        t0 = time.perf_counter()
        for at_s, index in plan:
            due = t0 + at_s
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(time.perf_counter() - due)
            for req in mix[index]:
                out = Outcome(req, due)
                slots[index].append(out)
                tasks.append(asyncio.create_task(_one(server, out)))
        await asyncio.gather(*tasks)
        metrics = server.metrics_snapshot()
    outcomes = [o for slot in slots for o in slot]
    end = max(o.done for o in outcomes)
    return PassResult(outcomes, late, end - t0, metrics)


async def run_sequential(mix: list[Arrival]) -> PassResult:
    """One request at a time to a fresh server: the memory pass."""
    outcomes = []
    async with EvaluationServer(CONFIG) as server:
        t0 = time.perf_counter()
        for arrival in mix:
            for req in arrival:
                out = Outcome(req, time.perf_counter())
                await _one(server, out)
                outcomes.append(out)
        metrics = server.metrics_snapshot()
    return PassResult(outcomes, [], time.perf_counter() - t0, metrics)


def warm_up(mix: list[Arrival]) -> None:
    """Server start plus one request of every distinct kind."""
    async def go():
        async with EvaluationServer(CONFIG) as server:
            seen = {}
            for arrival in mix:
                seen.setdefault(arrival[0].kind, arrival[0])
            for req in seen.values():
                await server.submit(req.instance, req.schedule, req.request)

    asyncio.run(go())


def check_pass(result: PassResult, reference: PassResult | None) -> None:
    m = result.metrics
    require(m["serve.errors"] == 0, f"serve.errors = {m['serve.errors']}")
    accepted = len(result.outcomes) - m["serve.shed"]
    served = m["serve.jobs_computed"] + m["serve.dedup_hits"] + m["serve.cache_hits"]
    require(
        served == accepted,
        f"jobs_computed + dedup_hits + cache_hits = {served} != {accepted} accepted",
    )
    if reference is None:
        return
    for now, ref in zip(result.outcomes, reference.outcomes):
        if now.error is None and ref.error is None:
            require(
                answer(now.envelope["report"]) == answer(ref.envelope["report"]),
                f"{now.request.kind}: served report differs between passes",
            )


def check_against_solo(result: PassResult, seed: int) -> None:
    """A seeded sample of served reports is bitwise solo ``evaluate()``."""
    rng = np.random.default_rng((seed, 7))
    by_kind: dict[str, list[Outcome]] = {}
    for out in result.outcomes:
        if out.error is None:
            by_kind.setdefault(out.request.kind, []).append(out)
    for kind in MIX:
        pool = by_kind.get(kind, [])
        if not pool:
            raise CheckError(f"no served {kind} request to check")
        for k in rng.choice(len(pool), size=min(SAMPLE_PER_KIND, len(pool)), replace=False):
            out = pool[int(k)]
            r = out.request
            solo = answer(repro.evaluate(r.instance, r.schedule, request=r.request).to_dict())
            require(
                answer(out.envelope["report"]) == solo,
                f"{kind}: served report differs from solo evaluate()",
            )
