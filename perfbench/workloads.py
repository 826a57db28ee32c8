"""The three closed-loop library workloads.

Each ``*_ops(seed)`` is the workload's set-up: it generates the
instances, pre-builds the schedules the operations take as input, and
returns one pass of :class:`~harness.Op`\\ s.  Every input that sets the
cost of an operation — instance, solver rng, Monte Carlo seed — comes
from fixed streams, so every pass and every run does identical work.
The workload seed only sets the order of the operations within a pass.
Operations call only the public API: ``repro.solve``, ``repro.evaluate``
and ``resolve_solver(name).build``.  They look ``repro.solve`` /
``repro.evaluate`` up at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.algorithms.registry import resolve_solver
from repro.workloads.generators import random_instance

from harness import Op, require

#: Root of every fixed input stream.
INSTANCE_SEED = 2007

# solve-eval: the paper's oblivious pipelines (§3/§4), one DAG class per
# solver that ``solve`` picks: lp, chains, tree, forest, layered.
SOLVE_EVAL_KINDS = ("independent", "chains", "out_tree", "mixed_forest", "layered")
SOLVE_EVAL_N, SOLVE_EVAL_M, SOLVE_EVAL_REPS = 128, 16, 64

# exact-regimen: the exponential layer.  (n, dag kind) of the regimen
# operations, and the size of the cyclic operation, which has no
# regimen build and so isolates the lattice and the layer sweep.  No
# n=16: its 0.8-1.0 s operation was the one a busy shared host slowed
# most, even at its fastest of 8 passes.
EXACT_REGIMENS = ((13, "independent"), (14, "chains"), (15, "out_tree"))
EXACT_CYCLIC_N, EXACT_M = 14, 4
GOLDEN_N = 12

# adaptive-mc: batched adaptive policies; ``adaptive`` (SUU-I-ALG)
# admits independent jobs only.
ADAPTIVE_KINDS = ("independent", "out_tree", "layered")
ADAPTIVE_POLICIES = ("greedy", "online_greedy", "msm_eligible", "adaptive")
ADAPTIVE_N, ADAPTIVE_M, ADAPTIVE_REPS = 64, 8, 256


def fixed_rng(*stream: int) -> np.random.Generator:
    return np.random.default_rng((INSTANCE_SEED, *stream))


def instance(stream: int, n: int, m: int, kind: str):
    return random_instance(n, m, dag_kind=kind, rng=fixed_rng(stream))


def _ordered(ops: list[Op], seed: int) -> list[Op]:
    """The pass in the seed's order: the work is the same for every seed."""
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[int(i)] for i in order]


def solve_eval_ops(seed: int) -> list[Op]:
    ops = []
    for i, kind in enumerate(SOLVE_EVAL_KINDS):
        inst = instance(i, SOLVE_EVAL_N, SOLVE_EVAL_M, kind)

        def run(inst=inst, i=i):
            result = repro.solve(inst, rng=fixed_rng(i, 1), allow_fallback=True)
            return repro.evaluate(
                inst, result, mode="mc", reps=SOLVE_EVAL_REPS, seed=1000 + i
            )

        ops.append(Op(f"solve+mc/{kind}", run, frozenset({"mc"})))
    return _ordered(ops, seed)


def exact_regimen_ops(seed: int) -> list[Op]:
    ops = []
    for i, (n, kind) in enumerate(EXACT_REGIMENS):
        inst = instance(10 + i, n, EXACT_M, kind)
        ops.append(
            Op(
                f"regimen/{kind}/n={n}",
                lambda inst=inst: repro.evaluate(inst, "state_round_robin", mode="exact"),
                frozenset({"exact"}),
            )
        )
    inst = instance(20, EXACT_CYCLIC_N, EXACT_M, "chains")
    cyclic = resolve_solver("round_robin").build(inst).schedule
    ops.append(
        Op(
            f"cyclic/chains/n={EXACT_CYCLIC_N}",
            lambda inst=inst, cyclic=cyclic: repro.evaluate(inst, cyclic, mode="exact"),
            frozenset({"exact"}),
        )
    )
    return _ordered(ops, seed)


def golden_check() -> None:
    """The sparse exact engine agrees with the scalar golden engine."""
    inst = instance(30, GOLDEN_N, EXACT_M, "chains")
    sparse = repro.evaluate(inst, "state_round_robin", mode="exact")
    golden = repro.evaluate(inst, "state_round_robin", mode="exact", engine="scalar")
    require(
        abs(sparse.makespan - golden.makespan) <= 1e-9,
        f"sparse exact {sparse.makespan!r} != scalar golden {golden.makespan!r}",
    )


def adaptive_mc_ops(seed: int) -> list[Op]:
    ops = []
    for i, kind in enumerate(ADAPTIVE_KINDS):
        inst = instance(40 + i, ADAPTIVE_N, ADAPTIVE_M, kind)
        for j, name in enumerate(ADAPTIVE_POLICIES):
            solver = resolve_solver(name)
            if not solver.supports(inst):
                continue
            policy = solver.build(inst).schedule
            ops.append(
                Op(
                    f"{name}/{kind}",
                    lambda inst=inst, policy=policy, mc_seed=1000 + 10 * i + j: (
                        repro.evaluate(
                            inst, policy, mode="mc", reps=ADAPTIVE_REPS, seed=mc_seed
                        )
                    ),
                    frozenset({"batch"}),
                )
            )
    return _ordered(ops, seed)
