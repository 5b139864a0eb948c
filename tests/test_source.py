"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import matfac


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a certificate check written as
    # one would silently switch off; every check must be an explicit raise.
    found = []
    for path in sorted(Path(matfac.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
