"""Deprecation machinery for the legacy evaluation entry points.

The estimator/exact-solver functions that predate ``repro.evaluate``
remain importable for external callers, but each public name is now a
thin shim: it emits one :class:`DeprecationWarning` pointing at the front
door, then delegates to the private engine-layer implementation.
First-party code must not call the shims — ``suu lint --rule
legacy-callsite`` (run in CI and as a tier-1 test) fails the build if any
module under ``src/`` does.
"""

from __future__ import annotations

import warnings

__all__ = ["warn_legacy", "LEGACY_ENTRY_POINTS"]

#: The public names that are now deprecation shims over the engine layer.
LEGACY_ENTRY_POINTS = (
    "estimate_makespan",
    "completion_curve",
    "expected_makespan_regimen",
    "expected_makespan_cyclic",
    "exact_completion_curve",
    "state_distribution",
)


def warn_legacy(old: str, hint: str = "") -> None:
    """Emit the standard deprecation warning for a legacy entry point.

    ``stacklevel=3`` attributes the warning to the external caller of the
    public shim (shim → this helper → caller).
    """
    message = (
        f"{old} is a legacy entry point; use repro.evaluate.evaluate(), "
        "the one front door that auto-dispatches to the same engines"
    )
    if hint:
        message += f" ({hint})"
    warnings.warn(DeprecationWarning(message), stacklevel=3)
