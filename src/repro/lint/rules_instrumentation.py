"""Instrumentation-contract rules: timing and warnings stay observable.

``bare-timer`` (``suu lint --rule bare-timer``) keeps timing in
:mod:`repro.obs`.  ``typed-warning``: every ``warnings.warn`` in ``src/``
must carry a *typed* warning class and an explicit ``stacklevel=``, so
warnings are filterable by category and attribute to the caller's line
rather than to library internals.
"""

from __future__ import annotations

import ast

from .base import Rule, register

__all__ = ["BareTimerRule", "TypedWarningRule"]

#: Clock-reading callables that must not be called outside ``repro/obs/``.
BANNED_CLOCKS = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "time",
        "time_ns",
    }
)

#: Modules allowed to read clocks directly: the instrumentation layer.
TIMER_ALLOWED_PREFIXES = ("repro/obs/",)


@register
class BareTimerRule(Rule):
    """``repro.obs`` is the one sanctioned timing layer (PR 7).

    Bare ``time.perf_counter()``-family reads bypass the telemetry: the
    measurement exists but never appears in spans, counters, or exported
    traces.  ``time.sleep`` and friends are not timing reads and stay
    unrestricted.
    """

    id = "bare-timer"
    description = (
        "bare time.perf_counter()-family clock reads outside repro/obs/ "
        "bypass the telemetry; use obs.span / obs.stopwatch"
    )

    def exempt(self, rel: str) -> bool:
        return rel.startswith(TIMER_ALLOWED_PREFIXES)

    def start_file(self, ctx) -> None:
        #: Local names bound to banned clocks by ``from time import ...``.
        self._from_time: set[str] = set()
        #: Bare-name calls seen during the walk, resolved in finish_file so
        #: a call textually above the import is still caught (the walk is
        #: document order; runtime order is not).
        self._name_calls: list[ast.Call] = []

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module != "time":
            return
        banned = {a.asname or a.name for a in node.names if a.name in BANNED_CLOCKS}
        if banned:
            ctx.report(
                self,
                node,
                f"imports clock(s) {sorted(banned)} from time — use repro.obs "
                "(span / stopwatch) instead",
            )
            self._from_time |= banned

    def visit_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in BANNED_CLOCKS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._report_call(node, f"time.{func.attr}", ctx)
        elif isinstance(func, ast.Name):
            self._name_calls.append(node)

    def finish_file(self, ctx) -> None:
        for node in self._name_calls:
            if node.func.id in self._from_time:
                self._report_call(node, node.func.id, ctx)

    def _report_call(self, node: ast.Call, name: str, ctx) -> None:
        ctx.report(
            self,
            node,
            f"bare {name}() timing call — use repro.obs (span / stopwatch) "
            "instead",
        )


#: Base categories too coarse to filter on — a typed subclass is required.
UNTYPED_CATEGORIES = frozenset({"Warning", "UserWarning", "RuntimeWarning"})


def _category_name(node: ast.expr) -> str | None:
    """The warning-class name an expression denotes, if recognizable."""
    if isinstance(node, ast.Call):
        return _category_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class TypedWarningRule(Rule):
    """Warnings carry a typed class and an explicit ``stacklevel`` (this PR).

    A bare-string ``warnings.warn("...")`` is an unfilterable
    ``UserWarning`` attributed to the library's own line.  Passing one of
    the repo's typed warning classes (``CensoredEstimateWarning``,
    ``StaleCacheWarning``, ``DeprecationWarning``, ...) makes the category
    catchable/silenceable, and an explicit ``stacklevel=`` points the
    report at the caller that can act on it.
    """

    id = "typed-warning"
    description = (
        "warnings.warn in src/ must pass a typed warning class (not a bare "
        "string / UserWarning) and an explicit stacklevel="
    )

    def start_file(self, ctx) -> None:
        #: Local aliases of warnings.warn bound by ``from warnings import warn``.
        self._warn_aliases: set[str] = set()
        self._name_calls: list[ast.Call] = []

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module == "warnings":
            self._warn_aliases |= {
                a.asname or a.name for a in node.names if a.name == "warn"
            }

    def visit_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "warn"
            and isinstance(func.value, ast.Name)
            and func.value.id == "warnings"
        ):
            self._check_warn(node, ctx)
        elif isinstance(func, ast.Name):
            self._name_calls.append(node)

    def finish_file(self, ctx) -> None:
        for node in self._name_calls:
            if node.func.id in self._warn_aliases:
                self._check_warn(node, ctx)

    def _check_warn(self, node: ast.Call, ctx) -> None:
        category = None
        if node.args:
            category = _category_name(node.args[0])
        if len(node.args) >= 2:
            category = _category_name(node.args[1])
        for kw in node.keywords:
            if kw.arg == "category":
                category = _category_name(kw.value)
        if (
            category is None
            or not category.endswith("Warning")
            or category in UNTYPED_CATEGORIES
        ):
            ctx.report(
                self,
                node,
                "warnings.warn() without a typed warning class — pass a "
                "repro warning type (e.g. CensoredEstimateWarning) or a "
                "stdlib subclass, not a bare string/UserWarning",
            )
        if not any(kw.arg == "stacklevel" for kw in node.keywords):
            ctx.report(
                self,
                node,
                "warnings.warn() without an explicit stacklevel= — the "
                "warning will blame this line instead of the caller",
            )
