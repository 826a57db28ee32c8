"""One command for the performance benchmark of the ``repro`` package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-eval --seed 1 --seconds 12 --trace 0

Workloads: ``solve-eval``, ``exact-regimen``, ``adaptive-mc``, ``serve-mix``
(``perfbench/README.md`` says why each exists and what each metric means).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes untraced and then traced and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed output check exits non-zero without
that line.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so the float64 eligibility matmul
# does not start a second thread that competes with the server's workers.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("REPRO_TRACE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import everything a timed path touches, before any clock starts."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import importlib

    for name in (
        "numpy", "scipy", "scipy.optimize", "scipy.sparse",
        "repro", "repro.algorithms", "repro.algorithms.pipeline",
        "repro.algorithms.registry", "repro.evaluate", "repro.lp", "repro.flow",
        "repro.rounding", "repro.delay", "repro.decomp", "repro.sim.montecarlo",
        "repro.sim.batch", "repro.sim.exact", "repro.sim.markov", "repro.serve",
        "repro.workloads.generators",
    ):
        importlib.import_module(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-eval", "exact-regimen", "adaptive-mc", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import bench  # the benchmark's own modules import the program

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.print_human(result)
    print(json.dumps(result.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
