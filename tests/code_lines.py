"""Count the code lines of the package, per module and in total.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring.  Run from anywhere:

    python tests/code_lines.py             # the package in src/matfac
    python tests/code_lines.py DIR         # the .py files under DIR

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(text, filename=str(path)))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "matfac"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.relative_to(package)}: {count}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
