"""The benchmark tracer patches engine functions by name: every target it
lists must exist, so that a renamed or deleted function fails here and not
only in a traced benchmark run."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _listed(name):
    """The literal value of a module-level list in perfbench/spans.py."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_span_functions_resolve():
    targets = _listed("FUNCTIONS")
    assert targets
    for modname, attr, _ in targets:
        assert modname.startswith("kleinwiman.")
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


def test_span_methods_resolve():
    targets = _listed("METHODS")
    assert targets
    for modname, clsname, meth, _ in targets:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert cls is not None, f"{modname}.{clsname}"
        assert callable(cls.__dict__.get(meth)), f"{modname}.{clsname}.{meth}"
