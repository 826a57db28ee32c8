"""The capability-typed solver registry — one seam for every algorithm.

Every scheduling algorithm in the repo is registered here exactly once as
a :class:`Solver` record: the callable plus its *declared capabilities* —
which :class:`~repro.core.dag.DagClass`\\ es it accepts, what kind of
schedule it emits, its approximation guarantee, whether it consumes
constants / randomness, and the paper it comes from.  Three consumers
query the seam instead of importing concrete solver functions:

* :func:`repro.algorithms.pipeline.solve` — the front door picks the
  strongest applicable record (``auto_rank``) for the instance's class;
* :mod:`repro.experiments.registry` — the experiment ``ALGORITHMS`` table
  is generated from these records, so a name means one thing everywhere;
* :func:`repro.algorithms.portfolio.run_portfolio` and the verify fuzzer
  — both enumerate :func:`iter_solvers`, so a newly registered solver is
  benchmarked and fuzzed automatically.

First-party imports of the concrete solver functions outside
``repro/algorithms/`` are banned by ``suu lint --rule solver-callsite``;
route through :func:`resolve_solver` / :func:`iter_solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.dag import DagClass
from ..core.instance import SUUInstance
from ..core.schedule import ScheduleResult
from ..errors import ExperimentError
from .baselines import (
    exact_baseline,
    greedy_prob_policy,
    msm_eligible_policy,
    random_policy,
    round_robin_baseline,
    serial_baseline,
    state_round_robin_regimen,
)
from .chains import solve_chains
from .constants import PRACTICAL, SUUConstants
from .independent import suu_i_adaptive, suu_i_lp, suu_i_oblivious
from .layered import solve_layered
from .online_greedy import online_greedy
from .trees import solve_forest, solve_tree

__all__ = [
    "Solver",
    "SOLVERS",
    "register_solver",
    "resolve_solver",
    "iter_solvers",
    "solver_names",
    "describe_solvers",
]

#: Every DAG class — for solvers that accept arbitrary precedence.
ALL_CLASSES = frozenset(DagClass)

#: The §4 nesting: each pipeline also accepts every *more special* class.
_FOREST_CLASSES = frozenset(
    {
        DagClass.INDEPENDENT,
        DagClass.CHAINS,
        DagClass.OUT_FOREST,
        DagClass.IN_FOREST,
        DagClass.MIXED_FOREST,
    }
)
_TREE_CLASSES = frozenset(
    {DagClass.INDEPENDENT, DagClass.CHAINS, DagClass.OUT_FOREST, DagClass.IN_FOREST}
)


@dataclass(frozen=True)
class Solver:
    """One algorithm plus its honestly declared capabilities.

    Attributes
    ----------
    name:
        Registry key — the single name used by ``pipeline.solve`` methods,
        experiment specs, the portfolio runner, the fuzzer, and the CLI.
    fn:
        The concrete solver, ``fn(instance, **kwargs) -> ScheduleResult``.
        :meth:`build` forwards ``constants=`` / ``rng=`` only when the
        record declares the need, so records wrap heterogeneous signatures
        without adapter shims.
    dag_classes:
        The precedence classes the solver *accepts* (validation inside the
        solver still governs; forcing a solver on an unsupported class
        raises its own :class:`~repro.errors.UnsupportedDagError`).
    adaptivity:
        ``"oblivious"`` (finite/cyclic table), ``"adaptive"`` (policy), or
        ``"regimen"`` (explicit per-state table).
    guarantee / paper:
        Human-facing provenance: the approximation guarantee and source.
    cost:
        ``"cheap"`` (combinatorial), ``"lp"`` (solves linear programs), or
        ``"exponential"`` (enumerates the 2^n state space).
    max_jobs / max_machines:
        Capability caps for :func:`iter_solvers` (exponential solvers only
        admit small instances).  ``None`` = unbounded.
    auto_rank:
        Priority in ``solve(method="auto")`` — the applicable solver with
        the *smallest* rank wins; ``None`` means never auto-picked.
    fallback:
        Auto-dispatch only uses this solver when ``allow_fallback=True``
        (the depth-layered general-DAG extension).
    """

    name: str
    fn: Callable[..., ScheduleResult]
    dag_classes: frozenset[DagClass]
    adaptivity: str
    guarantee: str
    paper: str = "Lin & Rajaraman, SPAA 2007"
    needs_constants: bool = False
    needs_rng: bool = False
    cost: str = "cheap"
    max_jobs: int | None = None
    max_machines: int | None = None
    auto_rank: int | None = None
    fallback: bool = False
    #: Extra keyword defaults recorded for provenance (e.g. state caps).
    defaults: dict = field(default_factory=dict)

    def supports(self, instance: SUUInstance) -> bool:
        """Do the declared capabilities admit this instance?"""
        if instance.classify() not in self.dag_classes:
            return False
        if self.max_jobs is not None and instance.n > self.max_jobs:
            return False
        if self.max_machines is not None and instance.m > self.max_machines:
            return False
        return True

    def build(
        self,
        instance: SUUInstance,
        constants: SUUConstants = PRACTICAL,
        rng=None,
        **params,
    ) -> ScheduleResult:
        """Run the solver, forwarding only the inputs it declares.

        Deliberately *not* capability-gated: forcing a solver on an
        unsupported instance must raise the solver's own error with its
        own wording (``solve(method=...)`` relies on this).
        """
        kwargs = dict(params)
        if self.needs_constants:
            kwargs["constants"] = constants
        if self.needs_rng:
            kwargs["rng"] = rng
        return self.fn(instance, **kwargs)


SOLVERS: dict[str, Solver] = {}


def register_solver(solver: Solver) -> Solver:
    """Register a record; rejects duplicate names (one name, one meaning)."""
    if solver.name in SOLVERS:
        raise ExperimentError(f"solver {solver.name!r} is already registered")
    if solver.adaptivity not in ("oblivious", "adaptive", "regimen"):
        raise ExperimentError(
            f"solver {solver.name!r}: adaptivity must be 'oblivious', "
            f"'adaptive' or 'regimen', got {solver.adaptivity!r}"
        )
    SOLVERS[solver.name] = solver
    return solver


def resolve_solver(name: str) -> Solver:
    try:
        return SOLVERS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown solver {name!r}; registered: {sorted(SOLVERS)}"
        ) from None


def iter_solvers(instance: SUUInstance) -> list[Solver]:
    """All registered solvers whose capabilities admit ``instance``.

    Sorted by name, so enumeration order is deterministic for the
    portfolio runner and the fuzzer.
    """
    return [s for _, s in sorted(SOLVERS.items()) if s.supports(instance)]


def solver_names() -> list[str]:
    return sorted(SOLVERS)


def describe_solvers() -> list[dict]:
    """One provenance row per solver (CLI table / generated docs).

    Sorted by name; ``dag_classes`` is rendered compactly ("any" when the
    solver accepts every class).
    """
    rows = []
    for name, s in sorted(SOLVERS.items()):
        if s.dag_classes == ALL_CLASSES:
            classes = "any"
        else:
            classes = ",".join(
                c.value for c in sorted(s.dag_classes, key=lambda c: c.value)
            )
        rows.append(
            {
                "name": name,
                "dag_classes": classes,
                "adaptivity": s.adaptivity,
                "cost": s.cost,
                "guarantee": s.guarantee,
                "paper": s.paper,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Built-in records.  auto_rank encodes the pipeline's strongest-applicable
# order: lp < chains < tree < forest < layered — exactly the historical
# if-chain on classify() (test-asserted bitwise-equivalent).
# ----------------------------------------------------------------------
register_solver(
    Solver(
        name="adaptive",
        fn=suu_i_adaptive,
        dag_classes=frozenset({DagClass.INDEPENDENT}),
        adaptivity="adaptive",
        guarantee="O(log n) x TOPT (Thm 3.3)",
    )
)
register_solver(
    Solver(
        name="oblivious",
        fn=suu_i_oblivious,
        dag_classes=frozenset({DagClass.INDEPENDENT}),
        adaptivity="oblivious",
        guarantee="O(log^2 n) x TOPT (Thm 3.6)",
        needs_constants=True,
    )
)
register_solver(
    Solver(
        name="lp",
        fn=suu_i_lp,
        dag_classes=frozenset({DagClass.INDEPENDENT}),
        adaptivity="oblivious",
        guarantee="O(log n log min(n,m)) x TOPT (Thm 4.5)",
        needs_constants=True,
        cost="lp",
        auto_rank=10,
    )
)
register_solver(
    Solver(
        name="chains",
        fn=solve_chains,
        dag_classes=frozenset({DagClass.INDEPENDENT, DagClass.CHAINS}),
        adaptivity="oblivious",
        guarantee="O(log m log n log(n+m)/loglog(n+m)) x TOPT (Thm 4.4)",
        needs_constants=True,
        needs_rng=True,
        cost="lp",
        auto_rank=20,
    )
)
register_solver(
    Solver(
        name="tree",
        fn=solve_tree,
        dag_classes=_TREE_CLASSES,
        adaptivity="oblivious",
        guarantee="O(log m log^2 n) x TOPT (Thm 4.8)",
        needs_constants=True,
        needs_rng=True,
        cost="lp",
        auto_rank=30,
    )
)
register_solver(
    Solver(
        name="forest",
        fn=solve_forest,
        dag_classes=_FOREST_CLASSES,
        adaptivity="oblivious",
        guarantee="O(log m log^2 n log(n+m)/loglog(n+m)) x TOPT (Thm 4.7)",
        needs_constants=True,
        needs_rng=True,
        cost="lp",
        auto_rank=40,
    )
)
register_solver(
    Solver(
        name="layered",
        fn=solve_layered,
        dag_classes=ALL_CLASSES,
        adaptivity="oblivious",
        guarantee="O(depth log n log min(n,m)) x TOPT (extension of Thm 4.5)",
        paper="Lin & Rajaraman, SPAA 2007 (§5 extension)",
        needs_constants=True,
        needs_rng=True,
        cost="lp",
        auto_rank=90,
        fallback=True,
    )
)
register_solver(
    Solver(
        name="serial",
        fn=serial_baseline,
        dag_classes=ALL_CLASSES,
        adaptivity="oblivious",
        guarantee="n x TOPT (trivially correct gang baseline)",
    )
)
register_solver(
    Solver(
        name="round_robin",
        fn=round_robin_baseline,
        dag_classes=ALL_CLASSES,
        adaptivity="oblivious",
        guarantee="none (structure-blind comparator)",
    )
)
register_solver(
    Solver(
        name="greedy",
        fn=greedy_prob_policy,
        dag_classes=ALL_CLASSES,
        adaptivity="adaptive",
        guarantee="none (Theta(m) worse than MSM on greedy traps)",
    )
)
register_solver(
    Solver(
        name="random_policy",
        fn=random_policy,
        dag_classes=ALL_CLASSES,
        adaptivity="adaptive",
        guarantee="none (weakest sensible comparator)",
    )
)
register_solver(
    Solver(
        name="msm_eligible",
        fn=msm_eligible_policy,
        dag_classes=ALL_CLASSES,
        adaptivity="adaptive",
        guarantee="heuristic (SUU-I-ALG restricted to eligible jobs)",
        paper="Lin & Rajaraman, SPAA 2007 (Fig. 2 extension)",
    )
)
register_solver(
    Solver(
        name="online_greedy",
        fn=online_greedy,
        dag_classes=ALL_CLASSES,
        adaptivity="adaptive",
        guarantee="(8+4*sqrt(2))-competitive for sum w_j C_j on unrelated "
        "machines; makespan heuristic here",
        paper="Gupta, Moseley, Uetz, Xie (arXiv:1703.01634)",
    )
)
register_solver(
    Solver(
        name="exact",
        fn=exact_baseline,
        dag_classes=ALL_CLASSES,
        adaptivity="regimen",
        guarantee="exact TOPT (Malewicz DP, small instances)",
        paper="Malewicz 2005 (via Lin & Rajaraman §2)",
        cost="exponential",
        max_jobs=8,
        max_machines=3,
        defaults={"max_states": 1 << 14},
    )
)
register_solver(
    Solver(
        name="state_round_robin",
        fn=state_round_robin_regimen,
        dag_classes=ALL_CLASSES,
        adaptivity="regimen",
        guarantee="none (exact-engine evaluation workload)",
        cost="exponential",
        max_jobs=16,
        defaults={"max_states": 1 << 20},
    )
)
