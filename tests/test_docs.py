"""Tier-1 wiring of the docs gate (``tools/check_docs.py``).

CI runs the gate as its own job; running it here too means a stale
fenced example or broken relative link in ``README.md`` / ``docs/*.md``,
or a source docstring citing a document that no longer exists, fails the
ordinary test suite on a developer machine, before any push.
Also pins the checker's own parsing primitives (fence extraction,
GitHub anchor slugs) so the gate itself cannot silently stop checking.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_documents_inventory_includes_the_doc_subsystem():
    names = {path.name for path in check_docs.documents()}
    assert {"README.md", "ARCHITECTURE.md", "BENCHMARKS.md"} <= names


def test_fence_extraction_and_slugs():
    text = "# A Title!\n```python\nx = 1\n```\n## The `code` (part)\n"
    blocks = list(check_docs.fenced_blocks(text))
    assert blocks == [("python", "x = 1", 2)]
    anchors = check_docs.heading_anchors(text)
    assert "a-title" in anchors
    assert "the-code-part" in anchors


def test_checker_reports_broken_examples_and_links(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Doc\n"
        "```python\n>>> 1 + 1\n3\n```\n"
        "```python\ndef broken(:\n```\n"
        "[missing](no_such_file.md)\n"
        "[bad anchor](#nowhere)\n",
        encoding="utf-8",
    )
    errors = check_docs.check_document(bad)
    assert len(errors) == 4


def test_checker_reports_a_cited_document_that_does_not_exist(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""See docs/ARCHITECTURE.md and NOPE.md."""\n'
        "x = 1  # ROADMAP.md item 2, not Readme.md or notes.md\n",
        encoding="utf-8",
    )
    errors = check_docs.check_cited_documents(source)
    assert len(errors) == 1 and "module.py:1: NOPE.md" in errors[0]


def test_repository_documents_pass_the_gate(capsys):
    failing = check_docs.main()
    captured = capsys.readouterr()
    assert failing == 0, f"docs gate failed:\n{captured.err}"
    # The gate is actually exercising content, not vacuously passing.
    assert "ARCHITECTURE.md: 4 python block(s)" in captured.out


def test_gate_runs_from_a_bare_checkout():
    """No install, no ``PYTHONPATH``: the tool finds ``src/`` itself, as
    ``tools/lint.py`` and ``tools/soak.py`` do."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr or done.stdout
