"""The package checks its invariants with explicit raises, which
``python -O`` keeps, never with ``assert`` statements, which it strips."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import crflag

PACKAGE = Path(crflag.__file__).parent


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements at lines {lines}"


def test_exports_resolve_and_are_not_modules():
    assert len(set(crflag.__all__)) == len(crflag.__all__)
    for name in crflag.__all__:
        assert not isinstance(getattr(crflag, name), types.ModuleType), name


def test_exports_are_the_objects_of_their_defining_modules():
    for name in crflag.__all__:
        module = importlib.import_module(f"crflag.{crflag._MODULE_OF[name]}")
        obj = getattr(crflag, name)
        assert obj is getattr(module, name), name
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == module.__name__, name


def test_exports_are_listed_and_bound_by_star_import():
    assert set(crflag.__all__) <= set(dir(crflag))
    namespace = {}
    exec("from crflag import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(crflag.__all__) and len(namespace) == 43


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crflag.no_such_name
