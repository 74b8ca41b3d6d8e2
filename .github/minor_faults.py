"""Count the minor page faults of each benchmark workload's operation.

Every workload that BENCHMARK.json declares runs in RUNS fresh
processes: the set-up of perfbench/harness.py, WARMUP operations, then
``ru_minflt`` (getrusage) around OPS further operations.  The operations
are the cost evaluation ``pipe(x)`` of the anneal workloads, on the
stored reference controls, and the design workload's scale range and
evaluation report, counted apart, over the stored design seeds.  A heap
whose large buffers stop being reused shows here as thousands of faults
per operation, where the timings only move within their noise.  Some
operations take a few or a few hundred faults from one process to the
next, so each count is the median of the processes, with their range.
With --base REV it also counts them at commit REV, on a `git archive` of
it.  Reports only; always exits 0.

    python .github/minor_faults.py [--base REV] [--root DIR]
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

WARMUP, OPS, RUNS = 3, 20, 3
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def operations(harness, workload: str) -> dict:
    """label -> a call of one operation of the workload, after its set-up."""
    if workload == harness.DESIGN:
        d = harness.setup_design(workload)
        scale_seeds, report_seeds = itertools.tee(itertools.cycle(harness.DESIGN_SEEDS))
        return {"scale range": lambda: harness.design_scale(d, next(scale_seeds)),
                "evaluation report": lambda: harness.design_evaluate(d, next(report_seeds))}
    cfg, pipe = harness.setup_anneal(workload)
    controls = itertools.cycle(harness.reference_controls(cfg.gsa.dimension))
    return {"cost evaluation": lambda: pipe(next(controls))}


def measure(root: Path, workload: str) -> dict:
    """label -> minor faults per operation, in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import harness

    out = {}
    for label, op in operations(harness, workload).items():
        for _ in range(WARMUP):
            op()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(OPS):
            op()
        out[label] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / OPS
    return out


def count(root: Path) -> dict:
    """(workload, label) -> "median (min-max)" faults per operation over the
    processes, or the error of a failed run."""
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for workload in workloads:
        seen = {}
        for _ in range(RUNS):
            run = subprocess.run(
                [sys.executable, __file__, "--root", str(root), "--workload", workload],
                capture_output=True, text=True, env={**os.environ, **ENV},
            )
            try:
                for label, v in json.loads(run.stdout.splitlines()[-1]).items():
                    seen.setdefault((workload, label), []).append(v)
            except (IndexError, ValueError):
                last = (run.stdout + run.stderr).strip().splitlines() or ["no output"]
                seen[(workload, "?")] = f"failed: {last[-1]}"
                break
        out.update({k: v if isinstance(v, str) else f"{statistics.median(v):.1f} ({min(v):.1f}-{max(v):.1f})"
                    for k, v in seen.items()})
    return out


def at_commit(rev: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "tree.tar"
        with archive.open("wb") as fh:
            subprocess.run(["git", "archive", rev], stdout=fh, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "tree", filter="data")
        return count(Path(tmp) / "tree")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--base", help="a commit to count against")
    ap.add_argument("--workload", help=argparse.SUPPRESS)   # one workload, in this process
    args = ap.parse_args()
    root = args.root.resolve()
    if args.workload:
        print(json.dumps(measure(root, args.workload)))
        return
    head = count(root)
    base = at_commit(args.base) if args.base else {}
    print(f"minor page faults per operation: median (range) of {RUNS} processes, each"
          f" counting {OPS} operations after {WARMUP} warm-up, one BLAS thread")
    print(f"{'workload':26} {'operation':18} {'this tree':>22} {(args.base or '')[:12]:>22}")
    for key in dict.fromkeys([*head, *base]):
        was = base.get(key, "-") if args.base else ""
        print(f"{key[0]:26} {key[1]:18} {head.get(key, '-'):>22} {was:>22}")


if __name__ == "__main__":
    try:
        main()
    except Exception:   # a report: show the failure, never fail the build
        print("minor fault count unknown: the report itself failed")
        traceback.print_exc(file=sys.stdout)
    sys.exit(0)
