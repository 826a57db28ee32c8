"""Run one workload and assemble its metrics.

End-to-end metrics (``--trace 0``) are taken with nothing wrapped and
``tracemalloc`` off; ``peak_mb`` comes from one extra pass that is not
timed (for the closed loops, one operation at a time between the timed
passes).  Per-layer metrics (``--trace 1``) come from a run that first
measures untraced passes, then the same passes with the layer entry
points wrapped (:mod:`tracing`) and ``repro.obs`` counters captured.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import scipy

from repro import obs
from repro.algorithms import chains, independent, trees
from repro.algorithms.registry import Solver
from repro.core.schedule import AdaptivePolicy
from repro.sim.exact import sparse

import repro
import serve_mix
import workloads
from harness import (
    Op, PassLog, measure, op_peak, percentile, repeat, require, run_pass, timed_setup,
)
from tracing import Target, Tracer

# Set-up runs at least this often and this long; setup_s is the median.
# The first set-up precedes the first timed operation; the repeats run
# between the timed passes, so that one slow stretch of the host does
# not cover all of them.
SETUP_REPEATS, SETUP_MIN_S = 3, 6.0

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "algorithms.solve_s": ("s", "ops_per_s (solve-eval)"),
    "lp.solve_s": ("s", "ops_per_s (solve-eval)"),
    "lp.vars": ("count", "ops_per_s (solve-eval)"),
    "lp.rows": ("count", "ops_per_s (solve-eval)"),
    "lp.nnz": ("count", "ops_per_s (solve-eval)"),
    "rounding.round_s": ("s", "ops_per_s (solve-eval)"),
    "flow.phases": ("count", "ops_per_s (solve-eval)"),
    "flow.augmentations": ("count", "ops_per_s (solve-eval)"),
    "delay.select_s": ("s", "ops_per_s (solve-eval)"),
    "decomp.decompose_s": ("s", "ops_per_s (solve-eval)"),
    "evaluate.mc_s": ("s", "ops_per_s (solve-eval); p50_ms (serve-mix)"),
    "mc.rep_steps": ("count", "ops_per_s (solve-eval); p50_ms (serve-mix)"),
    "mc.ns_per_rep_step": ("ns", "ops_per_s (solve-eval); p50_ms (serve-mix)"),
    "mc.reps": ("count", "ops_per_s (solve-eval); p50_ms (serve-mix)"),
    "mc.truncated": ("count", "ops_per_s (solve-eval); p50_ms (serve-mix)"),
    "algorithms.regimen_build_s": ("s", "ops_per_s (exact-regimen); p90_ms (serve-mix)"),
    "exact.lattice_s": ("s", "ops_per_s, peak_mb (exact-regimen)"),
    "exact.solve_s": ("s", "ops_per_s, peak_mb (exact-regimen)"),
    "exact.states_allocated": ("count", "ops_per_s, peak_mb (exact-regimen)"),
    "exact.bytes_per_state": ("B", "ops_per_s, peak_mb (exact-regimen)"),
    "evaluate.batch_s": ("s", "ops_per_s (adaptive-mc)"),
    "batch.steps": ("count", "ops_per_s (adaptive-mc)"),
    "batch.policy_queries": ("count", "ops_per_s (adaptive-mc)"),
    "batch.memo_hits": ("count", "ops_per_s (adaptive-mc)"),
    "batch.memo_entries": ("count", "ops_per_s (adaptive-mc)"),
    "batch.memo_hit_rate": ("ratio", "ops_per_s (adaptive-mc)"),
    "batch.ns_per_rep_step": ("ns", "ops_per_s (adaptive-mc)"),
    "serve.queue_ms.p50": ("ms", "p50_ms, p90_ms (serve-mix)"),
    "serve.queue_ms.p90": ("ms", "p50_ms, p90_ms (serve-mix)"),
    "serve.compute_ms.p50": ("ms", "p50_ms, p90_ms (serve-mix)"),
    "serve.compute_ms.p90": ("ms", "p50_ms, p90_ms (serve-mix)"),
    "serve.loop_late_ms.p90": ("ms", "p90_ms (serve-mix)"),
    "serve.resolve_s": ("s", "p90_ms (serve-mix)"),
    "serve.jobs_computed": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.dedup_hits": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.cache_hits": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.batch_groups": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.shed": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.errors": ("count", "ops_per_s, p50_ms (serve-mix)"),
    "serve.dedup_rate": ("ratio", "ops_per_s, p50_ms (serve-mix)"),
    "serve.batch_fill": ("ratio", "ops_per_s, p50_ms (serve-mix)"),
    "trace.overhead_frac": ("ratio", "none (the cost of tracing: traced over untraced, minus 1)"),
}

#: Library counters that must repeat exactly from pass to pass and run to run.
LIBRARY_COUNTERS = (
    "lp.vars", "lp.rows", "lp.nnz", "flow.phases", "flow.augmentations",
    "mc.reps", "mc.truncated", "batch.steps", "batch.policy_queries",
    "batch.memo_hits", "batch.memo_entries", "exact.states_allocated",
)


def _evaluate_span(instance, schedule, request=None, **kwargs):
    mode = request.mode if request is not None else kwargs.get("mode")
    if mode == "exact":
        return "exact.evaluate"
    if isinstance(schedule, AdaptivePolicy):
        return "evaluate.batch"
    return "evaluate.mc"


def _library_targets():
    return [
        Target(repro, "solve", "algorithms.solve"),
        Target(repro, "evaluate", _evaluate_span),
        Target(independent, "solve_lp2", "lp.solve"),
        Target(chains, "solve_lp1", "lp.solve"),
        Target(independent, "round_acc_mass", "rounding.round"),
        Target(chains, "round_acc_mass", "rounding.round"),
        Target(chains, "find_good_delays", "delay.select"),
        Target(chains, "derandomized_delays", "delay.select"),
        Target(chains, "flatten_pseudo", "delay.select"),
        Target(trees, "decompose_forest", "decomp.decompose"),
        Target(
            Solver, "build",
            lambda solver, *a, **k: (
                "algorithms.regimen_build" if solver.adaptivity == "regimen" else None
            ),
        ),
        Target(sparse, "build_regimen_structure", "exact.lattice"),
        Target(sparse, "build_step_structure", "exact.lattice"),
    ]


SERVE_TARGETS = [Target(Solver, "build", "serve.resolve")]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, int] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)

    def summary(self) -> dict:
        units = {k: u for k, (u, _) in PER_LAYER.items()} if self.trace else END_TO_END
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def print_human(result: Result) -> None:
    print(f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"operations attempted {result.attempted}  failed {result.failed}")
    if result.trace:
        for name, (unit, moves) in PER_LAYER.items():
            print(f"  {name:28s} {result.metrics[name]:>16.6g} {unit:6s} moves {moves}")
    else:
        for name, unit in END_TO_END.items():
            n = result.samples.get(name, 1)
            print(f"  {name:10s} {result.metrics[name]:>12.6g} {unit:6s} samples {n}")
    for name, values in result.raw.items():
        print(f"raw {name} " + " ".join(f"{v:.6g}" for v in values))


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------
LIBRARY = {
    "solve-eval": workloads.solve_eval_ops,
    "exact-regimen": workloads.exact_regimen_ops,
    "adaptive-mc": workloads.adaptive_mc_ops,
}


def _set_up(setup, trace: bool) -> tuple[list[float], object, list]:
    """The first set-up, and the repeats still to run between passes.

    Returns the list of set-up times, which the repeats extend, the first
    set-up's state, and the repeat tasks.  The traced run reports no
    ``setup_s``, so it sets up once.
    """
    first, state = timed_setup(setup)
    times = [first]
    count = 1 if trace else max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / first))
    return times, state, [lambda: times.append(timed_setup(setup)[0])] * (count - 1)


def _alternate(a: list, b: list) -> list:
    return [x for pair in itertools.zip_longest(a, b) for x in pair if x is not None]


def _warmed(ops_fn, seed):
    def setup():
        ops = ops_fn(seed)
        for op in ops:
            op.run()
        return ops

    return setup


def _run_library(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name == "exact-regimen":
        workloads.golden_check()
    setup_times, ops, setups = _set_up(_warmed(LIBRARY[name], seed), trace)
    if trace:
        return _trace_library(name, seed, seconds, ops)
    peaks: list[int] = []
    memory = [lambda op=op: peaks.append(op_peak(op)) for op in ops]
    log = measure(ops, seconds, between=_alternate(setups, memory))
    # Latency percentiles over the operations of a pass, each at its
    # fastest time: one sample per distinct operation.
    op_ms = [t * 1e3 for t in log.best_times()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": log.ops_per_s(),
        "peak_mb": max(peaks) / 1e6,
        "p50_ms": percentile(op_ms, 50),
        "p90_ms": percentile(op_ms, 90),
    }
    timed = len(ops) * len(log.times)
    return Result(
        name, seed, False,
        attempted=timed,
        failed=log.failed,
        metrics=metrics,
        samples={
            "setup_s": len(setup_times), "ops_per_s": timed,
            "peak_mb": len(peaks), "p50_ms": len(op_ms), "p90_ms": len(op_ms),
        },
        raw={
            "setup_s": setup_times,
            "pass_ops_per_s": [len(ops) / sum(t) for t in log.times],
            "op_best_ms": op_ms,
            "op_peak_mb": [p / 1e6 for p in peaks],
        },
    )


def _captured(op: Op, sink: list) -> Op:
    def run():
        with obs.capture() as tel:
            report = op.run()
        sink.append(dict(tel.counters))
        return report

    return Op(op.name, run, op.tags)


def _rep_steps(ops: list[Op], reports: list, tag: str) -> int:
    # A lockstep run advances until its slowest replication finishes, so
    # its step count is the largest makespan sampled.
    return sum(
        int(r.n_reps) * int(r.max)
        for op, r in zip(ops, reports)
        if r is not None and tag in op.tags
    )


def _trace_library(name: str, seed: int, seconds: float, ops: list[Op]) -> Result:
    plain = measure(ops, seconds / 2, min_passes=2)
    tracer = Tracer()
    sink: list[dict] = []
    traced = PassLog([_captured(op, sink) for op in ops], answers=plain.answers)
    span_passes, counter_passes, op_counters = [], [], None
    deadline = time.perf_counter() + seconds / 2
    with tracer.installed(_library_targets()):
        while len(traced.times) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            sink.clear()
            run_pass(traced)
            span_passes.append({k: tracer.self_s(k) for k in tracer.self_ns})
            totals = {c: sum(d.get(c, 0) for d in sink) for c in LIBRARY_COUNTERS}
            counter_passes.append(totals)
            op_counters = op_counters or list(sink)
    for totals in counter_passes[1:]:
        require(totals == counter_passes[0], f"{name}: library counters differ between passes")
    peaks = [op_peak(op) for op in ops]

    def span_s(key):
        return statistics.median(p.get(key, 0.0) for p in span_passes)

    counters = counter_passes[0]
    m = {k: 0.0 for k in PER_LAYER}
    m.update({k: float(counters[k]) for k in LIBRARY_COUNTERS})
    m["algorithms.solve_s"] = span_s("algorithms.solve")
    m["lp.solve_s"] = span_s("lp.solve")
    m["rounding.round_s"] = span_s("rounding.round")
    m["delay.select_s"] = span_s("delay.select")
    m["decomp.decompose_s"] = span_s("decomp.decompose")
    m["evaluate.mc_s"] = span_s("evaluate.mc")
    m["algorithms.regimen_build_s"] = span_s("algorithms.regimen_build")
    m["exact.lattice_s"] = span_s("exact.lattice")
    m["exact.solve_s"] = span_s("exact.evaluate")
    m["evaluate.batch_s"] = span_s("evaluate.batch")

    mc_steps = _rep_steps(ops, plain.reports, "mc")
    batch_steps = _rep_steps(ops, plain.reports, "batch")
    m["mc.rep_steps"] = float(mc_steps)
    if mc_steps:
        m["mc.ns_per_rep_step"] = m["evaluate.mc_s"] * 1e9 / mc_steps
    if batch_steps:
        m["batch.ns_per_rep_step"] = m["evaluate.batch_s"] * 1e9 / batch_steps
    lookups = counters["batch.memo_hits"] + counters["batch.policy_queries"]
    if lookups:
        m["batch.memo_hit_rate"] = counters["batch.memo_hits"] / lookups
    per_state = [
        peak / c["exact.states_allocated"]
        for peak, c in zip(peaks, op_counters)
        if c.get("exact.states_allocated")
    ]
    if per_state:
        m["exact.bytes_per_state"] = max(per_state)
    m["trace.overhead_frac"] = plain.ops_per_s() / traced.ops_per_s() - 1.0
    return Result(
        name, seed, True,
        attempted=len(ops) * (len(plain.times) + len(traced.times)),
        failed=plain.failed + traced.failed,
        metrics=m,
        raw={
            "pass_counters": [float(sum(p.values())) for p in counter_passes],
            "untraced_pass_s": [sum(t) for t in plain.times],
            "traced_pass_s": [sum(t) for t in traced.times],
        },
    )


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def _serve_setup():
    def setup():
        mix = serve_mix.build_mix()
        serve_mix.warm_up(mix)
        return mix

    return setup


@dataclass
class _ServeRun:
    """The passes of one serve-mix run, each a replay of the same plan."""

    seed: int
    mix: list
    results: list = field(default_factory=list)

    def passes(
        self, seconds: float, min_passes: int, between=(), capture: bool = False
    ) -> list:
        done = []
        plan = serve_mix.arrival_plan(len(self.mix))

        def one_pass() -> float:
            if capture:
                with obs.capture() as tel:
                    result = asyncio.run(serve_mix.run_pass(self.mix, plan))
                result.metrics = dict(result.metrics, **tel.counters)
            else:
                result = asyncio.run(serve_mix.run_pass(self.mix, plan))
            serve_mix.check_pass(result, self.results[0] if self.results else None)
            self.results.append(result)
            done.append(result)
            return result.wall_s

        repeat(one_pass, seconds, min_passes, between)
        return done


def _latencies_ms(result) -> list[float]:
    return [(o.done - o.due) * 1e3 for o in result.outcomes if o.error is None]


def _fastest(results):
    """The pass with the lowest mean latency.

    Every pass replays the same plan, so the passes differ only in how
    fast the host ran; the fastest is the one a slow stretch moved least.
    """
    return min(results, key=lambda r: statistics.fmean(_latencies_ms(r) or [math.inf]))


def _failures(results) -> tuple[int, int]:
    outcomes = [o for r in results for o in r.outcomes]
    return len(outcomes), sum(o.error is not None for o in outcomes)


def _run_serve(seed: int, seconds: float, trace: bool) -> Result:
    setup_times, mix, setups = _set_up(_serve_setup(), trace)
    run = _ServeRun(seed, mix)
    if trace:
        return _trace_serve(run, seconds)
    results = run.passes(seconds, min_passes=3, between=setups)
    serve_mix.check_against_solo(results[0], seed)
    peak = _serve_peak(mix)
    lat = _latencies_ms(_fastest(results))
    attempted, failed = _failures(results)
    rates = [r.ops_per_s() for r in results]
    return Result(
        "serve-mix", seed, False,
        attempted=attempted, failed=failed,
        metrics={
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(rates),
            "peak_mb": peak / 1e6,
            "p50_ms": percentile(lat, 50),
            "p90_ms": percentile(lat, 90),
        },
        samples={
            "setup_s": len(setup_times), "ops_per_s": len(rates), "peak_mb": 1,
            "p50_ms": len(lat), "p90_ms": len(lat),
        },
        raw={"setup_s": setup_times, "pass_ops_per_s": rates,
             "pass_p50_ms": [percentile(_latencies_ms(r), 50) for r in results],
             "pass_p90_ms": [percentile(_latencies_ms(r), 90) for r in results]},
    )


def _serve_peak(mix) -> int:
    """``tracemalloc`` peak over one pass sent one request at a time."""
    tracemalloc.start()
    try:
        result = asyncio.run(serve_mix.run_sequential(mix))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    serve_mix.check_pass(result, None)
    return peak


def _trace_serve(run: _ServeRun, seconds: float) -> Result:
    plain = run.passes(seconds / 2, min_passes=1)
    tracer = Tracer()
    traced, resolve_s = [], []
    with tracer.installed(SERVE_TARGETS):
        deadline = time.perf_counter() + seconds / 2
        while not traced or time.perf_counter() < deadline:
            tracer.reset()
            traced.extend(run.passes(0, 1, capture=True))
            resolve_s.append(tracer.self_s("serve.resolve"))
    computed = [
        o.envelope["provenance"]
        for r in traced for o in r.outcomes
        if o.error is None
        and not o.envelope["provenance"]["cache_hit"]
        and o.envelope["provenance"]["deduped_with"] is None
    ]
    queue_ms = [p["queue_time_s"] * 1e3 for p in computed]
    compute_ms = [p["compute_time_s"] * 1e3 for p in computed]
    late_ms = [x * 1e3 for r in traced for x in r.late_s]

    def med(key):
        return statistics.median(float(r.metrics.get(key, 0)) for r in traced)

    m = {k: 0.0 for k in PER_LAYER}
    m.update({
        "serve.queue_ms.p50": percentile(queue_ms, 50),
        "serve.queue_ms.p90": percentile(queue_ms, 90),
        "serve.compute_ms.p50": percentile(compute_ms, 50),
        "serve.compute_ms.p90": percentile(compute_ms, 90),
        "serve.loop_late_ms.p90": percentile(late_ms, 90),
        "serve.resolve_s": statistics.median(resolve_s),
        "mc.reps": med("mc.reps"),
        "mc.truncated": med("mc.truncated"),
        "exact.states_allocated": med("exact.states_allocated"),
    })
    for key in ("jobs_computed", "dedup_hits", "cache_hits", "batch_groups", "shed", "errors"):
        m[f"serve.{key}"] = med(f"serve.{key}")
    sent = len(traced[0].outcomes)
    m["serve.dedup_rate"] = (m["serve.dedup_hits"] + m["serve.cache_hits"]) / sent
    if m["serve.jobs_computed"]:
        m["serve.batch_fill"] = med("serve.batched_jobs") / m["serve.jobs_computed"]
    m["trace.overhead_frac"] = (
        percentile(_latencies_ms(_fastest(traced)), 50)
        / percentile(_latencies_ms(_fastest(plain)), 50)
        - 1.0
    )
    attempted, failed = _failures(plain + traced)
    return Result(
        "serve-mix", run.seed, True, attempted=attempted, failed=failed, metrics=m,
        raw={"traced_pass_p50_ms": [percentile(_latencies_ms(r), 50) for r in traced],
             "untraced_pass_p50_ms": [percentile(_latencies_ms(r), 50) for r in plain]},
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    if workload == "serve-mix":
        return _run_serve(seed, seconds, trace)
    return _run_library(workload, seed, seconds, trace)

