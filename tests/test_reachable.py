"""Every top-level definition of the library is reachable from an entry
point of the program: the CLI or the benchmark.  Code that only tests
need lives in tests/, with the reference implementations in _oracles.py.

The scan is by name: a definition counts as reached when any reached code
mentions its name, as a bare name or as an attribute, so a shared name can
hide dead code but never flags live code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamforge"
ENTRY_POINTS = [SRC / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
# the mpmath test pins the general divided-difference kernel through it
ALLOWED = {"toggling.nested_exp_integral"}


def _mentions(node) -> set:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _definitions() -> dict:
    """name -> [(module, node)] for the top-level functions, classes and
    assigned names of the library."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    defs.setdefault(name, []).append((path.stem, node))
    return defs


def test_every_library_definition_is_reachable_from_an_entry_point():
    defs = _definitions()
    todo = set().union(*(_mentions(ast.parse(p.read_text())) for p in ENTRY_POINTS))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, node in defs.get(name, ()):
            todo |= _mentions(node) - reached
    unreached = {
        f"{module}.{name}"
        for name, sites in defs.items() if name not in reached
        for module, _ in sites
    }
    assert sorted(unreached - ALLOWED) == []
