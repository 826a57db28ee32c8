"""Run one or more workloads over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads solve-eval serve-mix --seeds 1-10 --seconds 12

For every end-to-end metric it prints the median, the quartiles, and the
interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``), next to the metric's bound from ``BENCHMARK.json``.  Every
run's raw result line is kept in ``--out`` (default
``.perfbench_runs/spread.jsonl``), so the values behind each spread can
be inspected later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "wall_s": wall, **result}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / ".perfbench_runs" / "spread.jsonl"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            row = run_once(workload, seed, args.seconds)
            runs.append(row)
            with out.open("a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: {row['wall_s']:.1f} s  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bounds[name])
            print(f"  {workload:14s} {name:10s} median {med:.5g}  IQR/median {share:.3f}"
                  f"  bound {bounds[name]}  ({share / bounds[name]:.2f} of bound)")
    print(f"largest spread, as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
