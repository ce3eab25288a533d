"""The package checks its invariants with explicit raises, which
``python -O`` keeps, never with ``assert`` statements, which it strips."""

import ast
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
