"""The lower layers check their invariants with explicit raises, which
``python -O`` keeps, never with ``assert`` statements, which it strips."""

import ast
from pathlib import Path

import pytest

import crflag

PACKAGE = Path(crflag.__file__).parent


@pytest.mark.parametrize("module", ["roots.py", "involution.py", "parabolic.py"])
def test_no_assert_statements(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements at lines {lines}"
