"""src/ holds the engine only: every function and method has a caller in src/.

A helper that only tests use belongs in tests/ (closed_forms.py holds the
oracles and test-only constructors).  The check is by name: a definition
counts as used when its name is read (as a name or an attribute) anywhere in
src/ncgdirac outside its own body and outside __init__.py, whose re-exports
are no use.  A static method counts as used only through a reference
Class.name.  A name shared by two other definitions (two classes with a
method of the same name, say) is used for both once either is called, so
this check can miss an unused instance method.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncgdirac"

# definitions kept without a caller in src/, each with its reason
ALLOWED_UNUSED = {
    "algebra.brute_force_normal_form": (
        "bench/tracer.py wraps it by name (algebra.brute_force_s) until the in-engine tracer lands "
        '(ROADMAP, "An in-engine stage tracer"), and tier-1 uses it as the reference that shares '
        "nothing with the rewriting kernel (criterion 6, test_oracle_decides_every_short_word)"
    ),
    "catalog.dtilde_apply": (
        "the public operator D~ on torus spinors (ncgdirac.dtilde_apply), which bench/tracer.py "
        "times by name; the spectrum reads the same operator's raw sums (ContractedConnection.add_term)"
    ),
    "geometry.tensor_connection_apply": (
        "bench/tracer.py wraps it by name until the in-engine tracer lands "
        '(ROADMAP, "An in-engine stage tracer")'
    ),
    "scalars.Scalar.at_q_one": (
        "the per-sector similarity clause will be its first caller "
        '(ROADMAP, "Isospectrality as an exact similarity")'
    ),
    "scalars.Scalar.eval_numeric": (
        "bench/tracer.py counts it by name (scalars.eval_numeric_calls) until the in-engine "
        'tracer lands (ROADMAP, "An in-engine stage tracer"), '
        "and the tests evaluate sectors with it for the numpy cross-check"
    ),
    "tensors.TensorElement.from_json": (
        "the public reader of to_json output; no src/ path reads a tensor back"
    ),
}


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node, owner) of each module-level function and non-dunder method.

    owner is the class name of a static method, which is reached only as
    Class.name, and None otherwise.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    owner = node.name if _is_static(item) else None
                    yield f"{module}.{node.name}.{item.name}", item, owner


def _references(tree: ast.Module):
    """(name, owner, ids of the enclosing function bodies) for every name or attribute read.

    owner is X for an attribute read X.name with X a plain name, else None.
    """
    out = []

    def walk(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, None, enclosing))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            out.append((node.attr, owner, enclosing))
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
        for qualname, node, owner in _definitions(tree, module):
            if not any(
                name == node.name and id(node) not in inside and (owner is None or ref_owner == owner)
                for name, ref_owner, inside in references
            ):
                unused.add(qualname)
    return unused


def test_every_engine_definition_has_an_engine_caller():
    unused = unused_definitions()
    assert unused - set(ALLOWED_UNUSED) == set(), "move test-only helpers to tests/ or delete them"


def test_allowlist_names_only_unused_definitions():
    # an allowed definition that gains a caller leaves the list
    assert set(ALLOWED_UNUSED) <= unused_definitions()


def test_static_method_counts_only_through_its_class(tmp_path):
    # B.make shares A.make's name, but only A.make is reached as Class.name
    (tmp_path / "m.py").write_text(
        "class A:\n    @staticmethod\n    def make():\n        return 1\n\n\n"
        "class B:\n    @staticmethod\n    def make():\n        return 2\n\n\n"
        "def run():\n    return A.make()\n"
    )
    assert unused_definitions(tmp_path) == {"m.B.make", "m.run"}
