#!/usr/bin/env python
"""Docs gate: keep the markdown documentation from silently rotting.

Checks, for ``README.md`` and every ``docs/*.md``:

1. **Fenced Python examples.**  Blocks containing ``>>>`` prompts run
   as doctests against the real installed package (ELLIPSIS enabled), so
   a renamed parameter or changed output breaks CI, not a reader.
   Blocks without prompts are compiled — syntax-checked — only (they may
   reference placeholder names like a user's own dataset).
2. **Relative links.**  Every ``[text](target)`` that is not an external
   URL must resolve to an existing file (relative to the document), and
   a ``#fragment`` must match a heading anchor in the target document,
   using GitHub's slug rules (lowercase, punctuation stripped, spaces to
   hyphens, ``-N`` suffixes for duplicates).

and, for the Python sources under ``src/``, ``tools/`` and
``benchmarks/*.py``:

3. **Cited documents.**  Every upper-case markdown name a docstring or
   comment cites (``ROADMAP.md``, ``docs/BENCHMARKS.md``) must be a file
   at the repository root or in ``docs/``, so a source file cannot keep
   pointing at a document that was merged away.

Run from the repository root (CI does); like the other tools it finds
``src/`` by itself when the package is not installed::

    python tools/check_docs.py

Exit status is the number of failing documents (0 = gate passes).  Used
both by the CI ``docs`` job and by ``tests/test_docs.py``, so the tier-1
suite catches documentation rot locally too.
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

# Self-bootstrapping src layout: the doctest blocks import ``repro``.
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

#: ``(language, code, first line number)`` per fenced block.
FENCE = re.compile(r"^```([A-Za-z0-9_+-]*)\s*$")
#: Markdown inline links; deliberately simple — no nested brackets.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
EXTERNAL = ("http://", "https://", "mailto:")
#: A document as source prose cites one.
CITED = re.compile(r"\b[A-Z_]+\.md\b")


def _display(path: Path) -> str:
    """Repo-relative path for messages; absolute when outside the repo
    (the self-test exercises the checker on temporary files)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def documents() -> List[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def fenced_blocks(text: str) -> Iterator[Tuple[str, str, int]]:
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = FENCE.match(lines[index])
        if match is not None:
            language = match.group(1).lower()
            body: List[str] = []
            start = index + 1
            index += 1
            while index < len(lines) and not lines[index].startswith("```"):
                body.append(lines[index])
                index += 1
            yield language, "\n".join(body), start
        index += 1


def github_slug(heading: str) -> str:
    text = heading.strip().lower()
    text = re.sub(r"`([^`]*)`", r"\1", text)  # drop inline-code backticks
    text = re.sub(r"[^\w\- ]", "", text)  # punctuation vanishes
    return text.replace(" ", "-")


def heading_anchors(text: str) -> Dict[str, int]:
    """All GitHub anchors of a document (duplicates get -1, -2, ...)."""
    anchors: Dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING.match(line)
        if match is None:
            continue
        slug = github_slug(match.group(2))
        if slug in anchors:
            anchors[slug] += 1
            anchors[f"{slug}-{anchors[slug]}"] = 0
        else:
            anchors[slug] = 0
    return anchors


def check_python_blocks(path: Path, text: str, errors: List[str]) -> int:
    """Doctest / compile every fenced Python block; returns blocks seen.

    Doctest blocks of one document share a namespace in order, like a
    literate program — an example may build on names its predecessors
    defined.
    """
    checked = 0
    globs: dict = {}
    for language, code, line in fenced_blocks(text):
        if language not in ("python", "py", "pycon"):
            continue
        checked += 1
        label = f"{_display(path)}:{line}"
        if ">>>" in code:
            parser = doctest.DocTestParser()
            try:
                test = parser.get_doctest(code, globs, label, str(path), line)
            except ValueError as exc:
                errors.append(f"{label}: malformed doctest block: {exc}")
                continue
            output: List[str] = []
            runner = doctest.DocTestRunner(
                optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
                verbose=False,
            )
            results = runner.run(test, out=output.append, clear_globs=False)
            globs = test.globs  # later blocks build on earlier ones
            if results.failed:
                errors.append(
                    f"{label}: {results.failed} doctest failure(s)\n"
                    + "".join(output)
                )
        else:
            try:
                compile(code, label, "exec")
            except SyntaxError as exc:
                errors.append(f"{label}: syntax error in example: {exc}")
    return checked


def check_links(path: Path, text: str, errors: List[str]) -> int:
    """Resolve every relative link + anchor; returns links seen."""
    checked = 0
    anchor_cache: Dict[Path, Dict[str, int]] = {}
    in_fence = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL):
                continue
            checked += 1
            label = f"{_display(path)}:{line_number}"
            if target.startswith("#"):
                file_part, fragment = "", target[1:]
            elif "#" in target:
                file_part, fragment = target.split("#", 1)
            else:
                file_part, fragment = target, ""
            if file_part:
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    errors.append(f"{label}: broken link target {target!r}")
                    continue
            else:
                resolved = path
            if fragment:
                if resolved.suffix != ".md":
                    errors.append(
                        f"{label}: anchor on non-markdown target {target!r}"
                    )
                    continue
                anchors = anchor_cache.get(resolved)
                if anchors is None:
                    source = (
                        text
                        if resolved == path
                        else resolved.read_text(encoding="utf-8")
                    )
                    anchors = heading_anchors(source)
                    anchor_cache[resolved] = anchors
                if fragment.lower() not in anchors:
                    errors.append(
                        f"{label}: anchor #{fragment} not found in "
                        f"{_display(resolved)}"
                    )
    return checked


def source_files() -> List[Path]:
    files = sorted((REPO_ROOT / "src").rglob("*.py"))
    files.extend(sorted((REPO_ROOT / "tools").glob("*.py")))
    files.extend(sorted((REPO_ROOT / "benchmarks").glob("*.py")))
    return files


def check_cited_documents(path: Path) -> List[str]:
    """Every document one source file cites must exist (root or docs/)."""
    errors: List[str] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_number, line in enumerate(lines, start=1):
        for name in CITED.findall(line):
            if not any((REPO_ROOT / where / name).exists() for where in ("", "docs")):
                errors.append(
                    f"{_display(path)}:{line_number}: {name} is neither at the "
                    "repository root nor in docs/"
                )
    return errors


def check_document(path: Path) -> List[str]:
    text = path.read_text(encoding="utf-8")
    errors: List[str] = []
    blocks = check_python_blocks(path, text, errors)
    links = check_links(path, text, errors)
    status = "FAIL" if errors else "ok"
    print(
        f"[{status}] {_display(path)}: "
        f"{blocks} python block(s), {links} relative link(s)"
    )
    return errors


def main() -> int:
    failing = 0
    for path in documents():
        errors = check_document(path)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        failing += bool(errors)
    sources = source_files()
    dangling = [error for path in sources for error in check_cited_documents(path)]
    status = "FAIL" if dangling else "ok"
    print(f"[{status}] cited documents: {len(sources)} source file(s)")
    for error in dangling:
        print(f"  {error}", file=sys.stderr)
    failing += bool(dangling)
    if failing:
        print(f"{failing} document(s) failed the docs gate", file=sys.stderr)
    return failing


if __name__ == "__main__":
    sys.exit(main())
