"""Source-level checks on the package itself."""

import ast
import importlib
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


def tracer_entries() -> dict:
    """The benchmark tracer's ENTRIES table, read from its source without
    importing or executing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ENTRIES"])
    return ast.literal_eval(value)


def test_every_tracer_entry_resolves():
    # the tracer wraps each entry where it is defined: a function in its
    # module's namespace, a method in its own class body (not a base class)
    missing = []
    for entry, (modname, qualnames) in tracer_entries().items():
        module = importlib.import_module(modname)
        for qual in qualnames:
            owner_name, _, attr = qual.rpartition(".")
            owner = vars(module).get(owner_name) if owner_name else module
            if owner is None or attr not in vars(owner):
                missing.append(f"{entry}: {modname}.{qual}")
    assert missing == []
