"""Closed-loop measurement shared by the library workloads.

A workload's set-up returns a fixed list of :class:`Op`\\ s — one *pass*.
Every pass runs the same operations on the same inputs, so:

* each operation's answer must be identical on every pass (checked);
* an operation's time is the fastest of its per-pass times, and
  ``ops_per_s`` is the operations of one pass over the sum of those
  times.  A shared host slows down by a third or more for stretches of
  a few seconds; the fastest of several passes spread over the run is
  the figure such a stretch moves least, while a slower program moves
  it as much as any other.
"""

from __future__ import annotations

import math
import time
import tracemalloc
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CensoredEstimateWarning, ReproError


class CheckError(AssertionError):
    """An output of the program is not what the benchmark expects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Op:
    """One timed operation; ``run`` returns its ``EvaluationReport``."""

    name: str
    run: Callable[[], object]
    tags: frozenset[str] = frozenset()


@dataclass
class PassLog:
    """Per-operation times and answers of every pass run so far."""

    ops: list[Op]
    times: list[list[float]] = field(default_factory=list)
    answers: list | None = None
    reports: list[object] = field(default_factory=list)
    failed: int = 0

    def best_times(self) -> list[float]:
        return [min(col) for col in zip(*self.times)]

    def ops_per_s(self) -> float:
        return len(self.ops) / sum(self.best_times())


def answer(report: dict) -> dict:
    """The part of a report's wire dict that must repeat bit for bit."""
    d = dict(report)
    d.pop("wall_time_s", None)
    d.pop("telemetry", None)
    return d


def run_pass(log: PassLog) -> float:
    """Run every op once, check its answer against the first pass, time it.

    An op that raises a ``ReproError`` or returns a censored estimate is a
    failed operation: it is counted, and its error must repeat too.
    Returns the seconds the pass took.
    """
    times, answers, reports = [], [], []
    for op in log.ops:
        with warnings.catch_warnings():
            warnings.simplefilter("error", CensoredEstimateWarning)
            t0 = time.perf_counter()
            try:
                report = op.run()
                outcome = answer(report.to_dict())
            except (ReproError, CensoredEstimateWarning) as exc:
                report, outcome = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
        if report is None:
            log.failed += 1
        reports.append(report)
        answers.append(outcome)
    if log.answers is None:
        log.answers = answers
        log.reports = reports
    for op, first, now in zip(log.ops, log.answers, answers):
        require(first == now, f"{op.name}: report differs between passes")
    log.times.append(times)
    return sum(times)


def repeat(
    one_pass: Callable[[], float],
    seconds: float,
    min_passes: int,
    between: Sequence[Callable[[], object]] = (),
) -> None:
    """Call ``one_pass`` until its passes add up to ``seconds`` and ``min_passes`` ran.

    ``one_pass`` returns the seconds it measured.  ``between`` holds
    untimed tasks, such as the memory pass one operation at a time or a
    repeat set-up.  They run between passes, spread evenly, so the passes
    sample a longer stretch of a shared host whose speed drifts.
    """
    tasks = list(between)
    spent, passes = 0.0, 0
    while passes < min_passes or spent < seconds:
        last = one_pass()
        spent += last
        passes += 1
        passes_left = max(1, math.ceil((seconds - spent) / last))
        for _ in range(math.ceil(len(tasks) / passes_left)):
            tasks.pop(0)()
    for task in tasks:
        task()


def measure(
    ops: list[Op], seconds: float, min_passes: int = 3, between: Sequence[Callable] = ()
) -> PassLog:
    """Closed-loop passes of ``ops``; see :func:`repeat`."""
    log = PassLog(ops)
    repeat(lambda: run_pass(log), seconds, min_passes, between)
    return log


def op_peak(op: Op) -> int:
    """``tracemalloc`` peak of one untimed run of ``op``, in bytes."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", CensoredEstimateWarning)
            op.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed_setup(setup: Callable[[], object]) -> tuple[float, object]:
    """Seconds one call of ``setup`` took, and what it returned."""
    t0 = time.perf_counter()
    state = setup()
    return time.perf_counter() - t0, state


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0 when empty."""
    return float(np.percentile(values, q)) if values else 0.0
