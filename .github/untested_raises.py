"""List the `raise` statements of src/hamforge that the tier-1 tests never run.

Runs the tier-1 suite (tests/) in this process under a sys.settrace line
tracer that watches the library's files only, then prints each `raise`
whose line never ran and the count.  Work in worker processes is not seen.
With --base REV it also counts them at commit REV: a `git archive` of REV
is tested the same way in a subprocess, and the script exits 1 when this
tree has more unexecuted raises than REV (or REV could not be measured);
otherwise, and without --base, it exits 0.

    python .github/untested_raises.py [--base REV] [--root DIR]
"""
from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tarfile
import tempfile
import threading
from pathlib import Path

SUMMARY = "unexecuted raise statements:"


def raise_lines(root: Path) -> dict[str, dict[int, str]]:
    """file -> {line: source} of every raise statement in src/hamforge."""
    out = {}
    for path in sorted((root / "src" / "hamforge").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        out[str(path.resolve())] = {
            node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
        }
    return out


def run_traced(root: Path) -> tuple[dict, int]:
    """Raise lines never run by tier-1 at `root`, and pytest's exit code."""
    import pytest

    wanted = raise_lines(root)
    seen = {f: set() for f in wanted}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in wanted[frame.f_code.co_filename]:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def watch(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    threading.settrace(watch)
    sys.settrace(watch)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = {f: {n: s for n, s in lines.items() if n not in seen[f]} for f, lines in wanted.items()}
    return missed, int(code)


def at_commit(rev: str) -> str:
    """The summary of this script run on a `git archive` of `rev`: "n of
    total", or why there is none."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "tree.tar"
        with archive.open("wb") as fh:
            subprocess.run(["git", "archive", rev], stdout=fh, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "tree", filter="data")
        run = subprocess.run(
            [sys.executable, __file__, "--root", str(Path(tmp) / "tree")],
            capture_output=True, text=True,
        )
    lines = [ln for ln in run.stdout.splitlines() if ln.startswith(SUMMARY)]
    return lines[-1][len(SUMMARY):].strip() if lines else "not measured (the run failed)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--base", help="a commit to count against")
    args = ap.parse_args()
    root = args.root.resolve()
    base = at_commit(args.base) if args.base else None
    missed, code = run_traced(root)
    total = sum(len(v) for v in raise_lines(root).values())
    print()
    print(f"tier-1 exit code {code}; unexecuted raise statements in src/hamforge:")
    for path, lines in missed.items():
        for n, source in sorted(lines.items()):
            print(f"  {Path(path).relative_to(root)}:{n}: {source}")
    n = sum(len(v) for v in missed.values())
    print(f"{SUMMARY} {n} of {total}")
    if base is None:
        return 0
    print(f"at {args.base[:12]}: {base}")
    if not base[0].isdigit() or n > int(base.split()[0]):
        print("FAIL: more unexecuted raise statements than at the base, or the base was not measured")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
