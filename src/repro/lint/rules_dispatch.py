"""Dispatch-contract rules: every call goes through the sanctioned door.

``legacy-callsite`` and ``solver-callsite`` (``suu lint --rule <id>``)
keep evaluation behind the ``evaluate()`` front door and solvers behind
the capability-typed registry.
"""

from __future__ import annotations

import ast

from .base import Rule, register

__all__ = ["LegacyCallsiteRule", "SolverCallsiteRule"]


def _callee_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


#: The public names that are deprecation shims over the engine layer
#: (mirrors repro._deprecation.LEGACY_ENTRY_POINTS).
LEGACY_ENTRY_POINTS = frozenset(
    {
        "estimate_makespan",
        "completion_curve",
        "expected_makespan_regimen",
        "expected_makespan_cyclic",
        "exact_completion_curve",
        "state_distribution",
    }
)

#: Modules allowed to mention legacy names: the shim definitions, the
#: engine layer they wrap, and the package re-export surfaces.
LEGACY_ALLOWED_MODULES = frozenset(
    {
        "repro/sim/montecarlo.py",
        "repro/sim/markov.py",
        "repro/sim/__init__.py",
        "repro/sim/exact/__init__.py",
        "repro/sim/exact/sparse.py",
        "repro/sim/exact/scalar.py",
        "repro/sim/exact/lattice.py",
        "repro/__init__.py",
    }
)


@register
class LegacyCallsiteRule(Rule):
    """First-party code must use the ``evaluate()`` front door (PR 5).

    The pre-front-door entry points are :class:`DeprecationWarning` shims
    kept for external callers only; a call or import inside ``src/``
    silently bypasses dispatch, adaptive precision, and provenance.
    """

    id = "legacy-callsite"
    description = (
        "legacy evaluation entry points (estimate_makespan, completion_curve, "
        "...) are external-caller shims; first-party code goes through "
        "repro.evaluate.evaluate()"
    )

    def exempt(self, rel: str) -> bool:
        return rel in LEGACY_ALLOWED_MODULES

    def visit_Call(self, node: ast.Call, ctx) -> None:
        name = _callee_name(node)
        if name in LEGACY_ENTRY_POINTS:
            ctx.report(
                self,
                node,
                f"call to legacy entry point {name}() — go through "
                "repro.evaluate.evaluate()",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        imported = {a.name for a in node.names} & LEGACY_ENTRY_POINTS
        if imported:
            ctx.report(
                self,
                node,
                f"imports legacy entry point(s) {sorted(imported)} — go "
                "through repro.evaluate.evaluate()",
            )


#: Concrete solver functions — the registry records' ``fn`` targets plus
#: the ``all_baselines`` convenience bundle they replaced.
SOLVER_FUNCTIONS = frozenset(
    {
        "suu_i_adaptive",
        "suu_i_oblivious",
        "suu_i_lp",
        "solve_chains",
        "solve_tree",
        "solve_forest",
        "solve_layered",
        "serial_baseline",
        "round_robin_baseline",
        "greedy_prob_policy",
        "random_policy",
        "msm_eligible_policy",
        "exact_baseline",
        "state_round_robin_regimen",
        "online_greedy",
        "all_baselines",
    }
)

#: The package that defines the solvers and the registry that wraps them.
SOLVER_ALLOWED_PREFIX = "repro/algorithms/"


@register
class SolverCallsiteRule(Rule):
    """Solvers are reached only through the capability-typed registry (PR 8).

    Importing a concrete solver function outside ``repro/algorithms/``
    skips the DAG-class and size capability checks and drops the call
    site out of registry-driven sweeps; dispatch goes through ``solve()``
    / ``resolve_solver()`` / ``run_portfolio()``.
    """

    id = "solver-callsite"
    description = (
        "concrete solver functions may only be called/imported inside "
        "repro/algorithms/; everything else dispatches through the "
        "capability-typed registry"
    )

    def exempt(self, rel: str) -> bool:
        return rel.startswith(SOLVER_ALLOWED_PREFIX)

    def visit_Call(self, node: ast.Call, ctx) -> None:
        name = _callee_name(node)
        if name in SOLVER_FUNCTIONS:
            ctx.report(
                self,
                node,
                f"call to concrete solver {name}() — dispatch through the "
                "registry (solve / resolve_solver / run_portfolio)",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        imported = {a.name for a in node.names} & SOLVER_FUNCTIONS
        if imported:
            ctx.report(
                self,
                node,
                f"imports concrete solver(s) {sorted(imported)} — dispatch "
                "through the registry (solve / resolve_solver / run_portfolio)",
            )
