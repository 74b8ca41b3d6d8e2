"""Count the code lines of Python files beside their `wc -l` lines.

A code line is a line that is not blank, not comment-only and not part of
a docstring (the string that opens a module, class or function body).  A
line with code and a trailing comment counts as code.  Deleting a
docstring leaves the code-line count as it was, so this count shows what
a change did to the code itself.

    python .github/code_lines.py [--base REV] PATH...

Each PATH is a .py file or a directory whose .py files (not recursive)
count together.  With --base the same paths are also read from commit
REV by `git show`, and the change is printed.  Reports only; always exits
0.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one file's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def texts(path: str, rev: str | None) -> list[str]:
    """The text of each .py file at `path`, in the work tree or at `rev`."""
    if rev is None:
        p = Path(path)
        files = sorted(p.glob("*.py")) if p.is_dir() else [p]
        return [f.read_text() for f in files if f.exists()]
    git = lambda *args: subprocess.run(["git", *args], capture_output=True, text=True).stdout
    names = git("ls-tree", "--name-only", rev, "--", path.rstrip("/") + "/" if Path(path).is_dir() else path)
    return [git("show", f"{rev}:{name}") for name in names.split() if name.endswith(".py")]


def total(path: str, rev: str | None) -> tuple[int, int]:
    both = [counts(t) for t in texts(path, rev)]
    return sum(n for n, _ in both), sum(c for _, c in both)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="also count at this commit and print the change")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    rows = [(path, total(path, None), total(path, args.base) if args.base else None) for path in args.paths]
    rows.append(("together", tuple(map(sum, zip(*(r[1] for r in rows)))),
                 tuple(map(sum, zip(*(r[2] for r in rows)))) if args.base else None))
    width = max(len(row[0]) for row in rows)
    head = f"{'':{width}} {'wc -l':>6} {'code':>6}"
    print(head + (f"   at {args.base[:12]}: wc -l, code (change)" if args.base else ""))
    for path, (n, c), was in rows:
        line = f"{path:{width}} {n:6d} {c:6d}"
        if was:
            line += f"   {was[0]:6d} ({n - was[0]:+d}), {was[1]:6d} ({c - was[1]:+d})"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
