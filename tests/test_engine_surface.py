"""Every name the engine defines is used by the engine, the CLI or the
benchmark, not only by the tests.

Each module of ``src/kleinwiman`` is parsed with ``ast``.  A module-level
function, class or constant, and each non-dunder method, must have a
reference somewhere in the package or in ``perfbench/*.py`` other than inside
its own definition.  A reference is a name, an attribute or an imported
name; in ``perfbench`` a string literal counts too, since its tracer patches
engine functions by name.  Matching is by bare name, so a reference to any
definition of that name keeps all of them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENGINE = sorted((ROOT / "src" / "kleinwiman").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# (module stem, name): why the name stays although nothing outside the tests
# reads it.
ALLOWED = {
    ("invariants", "wiman_phi45"):
        "acceptance criterion 09 reads the degree-45 line product from it",
    ("invariants", "wiman_curve_in_generators"):
        "the characteristic-0 witness of the degree-90 Wiman curve "
        "(ROADMAP item 1)",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for each module-level function, class and constant and
    each non-dunder method; node is the definition a reference inside which
    does not count."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, node))
            out.extend((item.name, item) for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and not _is_dunder(item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend((t.id, node) for t in targets
                       if isinstance(t, ast.Name) and not _is_dunder(t.id))
    return out


def _references(tree, strings):
    """(name, enclosing nodes) for each reference in a module."""
    out = []

    def visit(node, stack):
        if isinstance(node, ast.Name):
            out.append((node.id, stack))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, stack))
        elif isinstance(node, ast.alias):
            out.append((node.name, stack))
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.append((node.value, stack))
        inner = stack + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, ())
    return out


def unused_names():
    """Sorted (module stem, name) for every engine definition that nothing
    outside its own definition reads, allowed or not."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in ENGINE + BENCH}
    used = {}
    for path, tree in trees.items():
        for name, stack in _references(tree, strings=path in BENCH):
            used.setdefault(name, []).append(stack)
    return sorted((path.stem, name) for path in ENGINE
                  for name, node in _definitions(trees[path])
                  if all(node in stack for stack in used.get(name, ())))


def test_engine_names_have_an_engine_caller():
    unused = [f"{m}.{n}" for m, n in unused_names() if (m, n) not in ALLOWED]
    assert not unused, ("engine names that only tests reach (delete them, or "
                        "call what they wrap from the tests): "
                        + ", ".join(unused))


def test_allow_list_names_only_unused_names():
    """An allow-list entry that is gone, or that an engine caller has since
    made redundant, is dropped from ALLOWED."""
    stale = set(ALLOWED) - set(unused_names())
    assert not stale, f"stale ALLOWED entries: {sorted(stale)}"
