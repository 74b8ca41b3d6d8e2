"""Benchmark for hamforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout; it imports hamforge from ``src/`` of
that checkout and nothing else.  One run sets up one workload, checks the
library's outputs against the references stored in ``perfbench/refs``,
and measures for ``--seconds``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines above it repeat every metric with
its unit and sample count, and record the run environment.

``--workload all`` runs every workload in its own process, untraced and
then traced, one after another, and ends with a summary table.
"""
import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import hamforge from this checkout's ``src/``; fail without it."""
    if not (SRC / "hamforge" / "__init__.py").is_file():
        raise SystemExit(f"hamforge source not found at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hamforge

    if not Path(hamforge.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported hamforge from {hamforge.__file__}, not from {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, out: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "operations_timed": out["ops"],
        "setups_timed": out["setups"],
        "attempted": out["result"]["attempted"],
        "failed": out["result"]["failed"],
    }


def run_one(args) -> int:
    use_checkout_source()
    import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)} or all")
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("env " + json.dumps(environment(args, out)))
    print(json.dumps(out["result"]), flush=True)
    return 0


def run_all(args) -> int:
    use_checkout_source()
    import harness

    rows = []
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                rows.append((workload, trace, None))
                continue
            rows.append((workload, trace, json.loads(lines[-1])))
    print("\nworkload                   trace  correct  attempted  failed  metric = value unit")
    ok = True
    for workload, trace, res in rows:
        if res is None:
            print(f"{workload:<26} {trace:>5}  run failed")
            ok = False
            continue
        ok = ok and res["correct"]
        head = f"{workload:<26} {trace:>5}  {str(res['correct']):<7}  {res['attempted']:>9}  {res['failed']:>6}"
        for name, metric in res["metrics"].items():
            print(f"{head}  {name} = {metric['value']:.6g} {metric['unit']}")
            head = " " * len(head)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hamforge benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
