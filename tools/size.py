#!/usr/bin/env python3
"""Code size in AST statements, docstrings excluded — per file and per
package under ``src/repro`` (or the paths given).  The measure the
simplicity PRs quote: blind to formatting, comments and docstrings.

    python tools/size.py [path ...]
"""

import ast
import sys
from collections import Counter
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path) -> int:
    nodes = list(ast.walk(ast.parse(path.read_text())))
    docstrings = sum(
        isinstance(n, SCOPES) and ast.get_docstring(n, clean=False) is not None
        for n in nodes
    )
    return sum(isinstance(n, ast.stmt) for n in nodes) - docstrings


def main(argv: list) -> None:
    roots = [Path(a) for a in argv] or [Path("src/repro")]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    packages: Counter = Counter()
    for f in files:
        n = statements(f)
        packages[f.parent] += n
        print(f"{n:6d}  {f}")
    for package, n in sorted(packages.items()):
        print(f"{n:6d}  {package}/")
    print(f"{sum(packages.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
