#!/usr/bin/env python3
"""Code size in AST statements, docstrings excluded — per file and per
package under ``src/repro`` (or the paths given).  The measure the
simplicity PRs quote: blind to formatting, comments and docstrings.

    python tools/size.py [path ...]
    python tools/size.py --against <git-ref> [path ...]

``--against`` reads the same paths from ``git show <ref>:<path>`` and
prints ``before → after (Δ)`` for every file that changed, every
package and the total; a file absent on one side counts 0 there.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> int:
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = sum(
        isinstance(n, SCOPES) and ast.get_docstring(n, clean=False) is not None
        for n in nodes
    )
    return sum(isinstance(n, ast.stmt) for n in nodes) - docstrings


def git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), check=True, capture_output=True, text=True
    ).stdout


def compare(ref: str, roots: list, after: dict) -> None:
    """Print ``before → after (Δ)`` against the tree at ``ref``."""
    listed = git("ls-tree", "-r", "--name-only", ref, "--", *map(str, roots))
    before = {
        Path(name): statements(git("show", f"{ref}:./{name}"))
        for name in listed.splitlines()
        if name.endswith(".py")
    }

    def grouped(key) -> list:
        rows: dict = {}
        for side, sizes in enumerate((before, after)):
            for f, n in sizes.items():
                rows.setdefault(key(f), [0, 0])[side] += n
        return sorted(rows.items())

    def show(name: object, old: int, new: int) -> None:
        print(f"{old:6d} → {new:6d} ({new - old:+d})  {name}")

    for f, (old, new) in grouped(lambda f: f):
        if old != new:
            show(f, old, new)
    for package, (old, new) in grouped(lambda f: f.parent):
        show(f"{package}/", old, new)
    show("total", sum(before.values()), sum(after.values()))


def main(argv: list) -> None:
    against = None
    if "--against" in argv:
        at = argv.index("--against")
        against = argv[at + 1]
        del argv[at : at + 2]
    roots = [Path(a) for a in argv] or [Path("src/repro")]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    sizes = {f: statements(f.read_text()) for f in files}
    if against is not None:
        compare(against, roots, sizes)
        return
    packages: Counter = Counter()
    for f, n in sizes.items():
        packages[f.parent] += n
        print(f"{n:6d}  {f}")
    for package, n in sorted(packages.items()):
        print(f"{n:6d}  {package}/")
    print(f"{sum(packages.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
