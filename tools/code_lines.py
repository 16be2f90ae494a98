"""Print the code lines of each module of src/octagap and their total.

A code line is a non-blank line that is not a comment and not part of a
module, class or function docstring.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "octagap"


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    skip.update(range(first.lineno, first.end_lineno + 1))
    lines = enumerate(source.splitlines(), 1)
    return sum(1 for n, text in lines if n not in skip and text.strip()[:1] not in ("", "#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
