"""Every top-level definition of the library, and every method of its
classes, is reachable from an entry point of the program: the CLI or the
benchmark; and every name a library module imports is used there.  Code that only tests need lives in tests/, with the reference
implementations in _oracles.py.

The scan is by name: a definition counts as reached when any reached code
mentions its name, as a bare name or as an attribute, so a shared name can
hide dead code but never flags live code.  A reached class brings in its
bases, decorators, class-level statements and dunder methods, which Python
calls by protocol; its other methods count only when named.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamforge"
ENTRY_POINTS = [SRC / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(nodes) -> set:
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
    return names


def _definitions() -> dict:
    """name -> [(qualified name, nodes to scan once reached)] for the
    top-level functions, classes and assigned names of the library and the
    methods of its classes."""
    defs = {}

    def add(name, where, nodes):
        if not name.startswith("__"):
            defs.setdefault(name, []).append((f"{where}.{name}", nodes))

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [
                    n for n in node.body
                    if isinstance(n, FUNCTIONS) and not n.name.startswith("__")
                ]
                add(node.name, path.stem, [n for n in ast.iter_child_nodes(node) if n not in methods])
                for method in methods:
                    add(method.name, f"{path.stem}.{node.name}", [method])
            elif isinstance(node, FUNCTIONS):
                add(node.name, path.stem, [node])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        add(t.id, path.stem, [node])
    return defs


def test_every_library_definition_is_reachable_from_an_entry_point():
    defs = _definitions()
    todo = _mentions(ast.parse(p.read_text()) for p in ENTRY_POINTS)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, nodes in defs.get(name, ()):
            todo |= _mentions(nodes) - reached
    unreached = {
        where for name, sites in defs.items() if name not in reached for where, _ in sites
    }
    assert sorted(unreached) == []



def test_every_library_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        unused += [f"{path.stem}.{name}" for name in sorted(imported - _mentions([tree]))]
    assert unused == []
