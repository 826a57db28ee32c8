"""Shared fixtures for the test suite.

All randomized tests are seeded; statistical assertions use tolerances wide
enough to be deterministic at the chosen replication counts.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance


def pytest_configure(config):
    # Tier-1 runs without resource leaks.  A ResourceWarning (an unclosed
    # socket or file) is usually raised in a finalizer, where pytest
    # reports it as an unraisable-exception warning, so both are errors.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )


@pytest.fixture(autouse=True, scope="module")
def _collect_garbage_per_module():
    # Objects caught in reference cycles (a test frame holding a raised
    # exception and an open socket, say) are finalized only by the cyclic
    # collector; run it before the module's last teardown ends, so a leak
    # warns inside the module that caused it.
    yield
    gc.collect()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_independent() -> SUUInstance:
    """3 machines, 3 independent jobs with friendly probabilities."""
    p = np.array(
        [
            [0.9, 0.2, 0.5],
            [0.3, 0.8, 0.4],
            [0.1, 0.6, 0.7],
        ]
    )
    return SUUInstance(p, name="tiny-independent")


@pytest.fixture
def tiny_chain() -> SUUInstance:
    """2 machines, chain 0 -> 1 -> 2."""
    p = np.array(
        [
            [0.7, 0.5, 0.6],
            [0.4, 0.9, 0.2],
        ]
    )
    return SUUInstance(p, PrecedenceDAG(3, [(0, 1), (1, 2)]), name="tiny-chain")


@pytest.fixture
def tiny_tree() -> SUUInstance:
    """3 machines, out-tree 0 -> {1, 2}, 1 -> 3."""
    p = np.array(
        [
            [0.8, 0.3, 0.5, 0.4],
            [0.2, 0.7, 0.3, 0.6],
            [0.5, 0.5, 0.9, 0.2],
        ]
    )
    dag = PrecedenceDAG(4, [(0, 1), (0, 2), (1, 3)])
    return SUUInstance(p, dag, name="tiny-tree")


@pytest.fixture
def small_chains_instance(rng) -> SUUInstance:
    """12 jobs in 3 chains on 5 machines, mixed probabilities."""
    p = rng.uniform(0.05, 0.9, size=(5, 12))
    chains = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12))]
    return SUUInstance(p, PrecedenceDAG.from_chains(chains, 12), name="small-chains")


@pytest.fixture
def medium_independent(rng) -> SUUInstance:
    p = rng.uniform(0.05, 0.85, size=(6, 18))
    return SUUInstance(p, name="medium-independent")

