"""Every public name in ``src/flowerlab`` has a caller in ``src/``.

A public function, class or method (dunders excepted) counts as called when
its name occurs anywhere in the package outside its own definition: as a
name, an attribute, an imported name (``perfbench`` wraps some names where
another module imports them) or a string naming it (``WIRE_EXTRA`` lists
properties that way).  Only the names in ``ALLOWED`` may go without one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowerlab"

ALLOWED = {
    "SparsePoly.evaluate": "perfbench traces it",
    "clear_cache": "perfbench calls it before every benchmark job",
    "descartes_check": "ROADMAP item 11",
    "tangent_curvatures": "ROADMAP item 11",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class and
    of each method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs):
                        yield f"{node.name}.{item.name}", item


def _occurrences(tree: ast.Module):
    """(name, line) of every name, attribute, imported name and
    identifier-like string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def test_every_public_name_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _occurrences(tree):
            uses.setdefault(name, []).append((module, line))
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("_") or qualname in ALLOWED:
                continue
            if all(m == module and node.lineno <= line <= node.end_lineno
                   for m, line in uses.get(name, ())):
                uncalled.append(f"{module}: {qualname}")
    assert not uncalled, "public names without a caller in src/:\n" + "\n".join(uncalled)
