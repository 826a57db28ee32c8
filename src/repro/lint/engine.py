"""The single-pass lint engine.

Each file under scan is read and :func:`ast.parse`\\ d **once**; the tree
is then walked once in document order, and every node is dispatched to
each active rule that declared a ``visit_<NodeType>`` hook.  Adding a
rule therefore costs one method call per matching node, not a re-parse —
the property that let three standalone checker scripts (three parses of
the whole tree each run) collapse into one framework.

Findings pass through the file's :class:`~repro.lint.suppress.SuppressionIndex`
(``# lint: disable=<rule-id>`` pragmas) before they reach the report, and
pragma hygiene (unused / unknown suppressions) is reported alongside.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .base import Rule, all_rule_ids, build_rules
from .findings import Finding
from .suppress import SuppressionIndex

__all__ = ["FileContext", "LintReport", "lint_file", "lint_paths", "default_root"]


def default_root() -> Path:
    """The directory rel-paths are computed against: the parent of the
    ``repro`` package (``src/`` in a checkout), so every rel looks like
    ``repro/sim/batch.py`` and matches the rules' structural allowlists."""
    return Path(__file__).resolve().parents[2]


class FileContext:
    """Per-file state shared by every rule during one dispatch walk."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module):
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self.findings: list[Finding] = []
        self._local_function_names: set[str] | None = None

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        """File a finding for ``rule`` at ``node``'s location."""
        self.findings.append(
            Finding(
                self.rel,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                rule.id,
                message,
            )
        )

    @property
    def local_function_names(self) -> set[str]:
        """Names of functions defined *inside another function* in this file.

        Such objects cannot be pickled by reference, so submitting one
        through the process-executor task protocol breaks on spawn start
        methods.  Computed lazily once per file from the already-parsed
        tree (no re-parse) and cached.
        """
        if self._local_function_names is None:
            names: set[str] = set()

            def scan(node: ast.AST, inside_function: bool) -> None:
                for child in ast.iter_child_nodes(node):
                    nested = inside_function or isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                    )
                    if nested and isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        names.add(child.name)
                    scan(child, nested)

            scan(self.tree, False)
            self._local_function_names = names
        return self._local_function_names


@dataclass
class LintReport:
    """Outcome of one lint run: findings plus run provenance."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rule_ids: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules": self.rule_ids,
            "findings": [f.to_dict() for f in self.findings],
        }


def _walk_document_order(tree: ast.AST) -> Iterable[ast.AST]:
    """Depth-first, document-order traversal (``ast.walk`` is breadth-first,
    which would hand rules calls before the imports above them)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _dispatch(ctx: FileContext, rules: Sequence[Rule]) -> None:
    """One walk, all rules: route each node to every matching hook."""
    handlers: dict[str, list] = {}
    for rule in rules:
        rule.start_file(ctx)
        for attr in dir(type(rule)):
            if attr.startswith("visit_"):
                handlers.setdefault(attr[len("visit_") :], []).append(
                    getattr(rule, attr)
                )
    for node in _walk_document_order(ctx.tree):
        for hook in handlers.get(type(node).__name__, ()):
            hook(node, ctx)
    for rule in rules:
        rule.finish_file(ctx)


def _rel_for(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path,
    rel: str | None = None,
    rules: "Sequence[Rule] | Sequence[str] | None" = None,
    root: Path | None = None,
) -> list[Finding]:
    """Lint one file; returns findings sorted by location.

    ``rules`` may be rule instances or rule ids (default: full registry).
    Suppression pragmas are honoured and their hygiene findings included.
    """
    root = root if root is not None else default_root()
    if rel is None:
        rel = _rel_for(path, root)
    built = (
        rules
        if rules and isinstance(rules[0], Rule)
        else build_rules(rules)  # type: ignore[arg-type]
    )
    active = [rule for rule in built if not rule.exempt(rel)]
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    ctx = FileContext(path, rel, source, tree)
    if active:
        _dispatch(ctx, active)
    index = SuppressionIndex(source)
    kept = [f for f in ctx.findings if not index.suppresses(f.line, f.rule_id)]
    kept.extend(
        index.hygiene_findings(
            rel,
            active_ids={rule.id for rule in active},
            known_ids=set(all_rule_ids()),
        )
    )
    return sorted(kept)


def iter_source_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    seen.setdefault(sub.resolve(), None)
        else:
            seen.setdefault(path.resolve(), None)
    return sorted(seen)


def lint_paths(
    paths: Sequence[Path] | None = None,
    rules: Sequence[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint files/directories (default: the whole ``repro`` package source).

    Rule instances are built once and shared across files — per-file state
    is reset through :meth:`Rule.start_file` — and each file is parsed and
    walked exactly once regardless of how many rules run.
    """
    root = root if root is not None else default_root()
    targets = iter_source_files(paths if paths else [root / "repro"])
    built = build_rules(rules)
    report = LintReport(rule_ids=[rule.id for rule in built])
    for path in targets:
        report.findings.extend(lint_file(path, rules=built, root=root))
        report.files_scanned += 1
    report.findings.sort()
    return report
