"""src/ holds the engine only: every function and method has a caller in src/.

A helper that only tests use belongs in tests/ (closed_forms.py holds the
oracles and test-only constructors).  The check is by name: a definition
counts as used when its name is read (as a name or an attribute) anywhere in
src/ncgdirac outside its own body and outside __init__.py, whose re-exports
are no use.  A name shared by two definitions (two classes with a method of
the same name, say) is used for both once either is called, so this check
can miss an unused method.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncgdirac"

# definitions kept without a caller in src/, each with its reason
ALLOWED_UNUSED = {
    "geometry.tensor_connection_apply": (
        "bench/tracer.py wraps it by name until the in-engine tracer lands (ROADMAP item 5)"
    ),
    "scalars.Scalar.at_q_one": (
        "the per-sector similarity clause will be its first caller (ROADMAP item 3)"
    ),
    "scalars.Scalar.eval_numeric": (
        "bench/tracer.py counts it by name (scalars.eval_numeric_calls) until ROADMAP item 5, "
        "and the tests evaluate sectors with it for the numpy cross-check"
    ),
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of each module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, ids of the enclosing function bodies) for every name or attribute read."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return out


def unused_definitions(src: Path = SRC) -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    references = [
        ref for module, tree in trees.items() if module != "__init__" for ref in _references(tree)
    ]
    unused = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            if not any(name == node.name and id(node) not in inside for name, inside in references):
                unused.add(qualname)
    return unused


def test_every_engine_definition_has_an_engine_caller():
    unused = unused_definitions()
    assert unused - set(ALLOWED_UNUSED) == set(), "move test-only helpers to tests/ or delete them"


def test_allowlist_names_only_unused_definitions():
    # an allowed definition that gains a caller leaves the list
    assert set(ALLOWED_UNUSED) <= unused_definitions()
