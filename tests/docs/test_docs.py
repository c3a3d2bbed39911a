"""Documentation accuracy checks: every intra-repo markdown link must
resolve, and every ``>>>`` example in docs/*.md must run (doctest), so
the documented APIs cannot silently drift from the code."""

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

#: Markdown files under version control that we lint for dead links.
MARKDOWN_FILES = sorted(
    path
    for pattern in ("*.md", "docs/*.md", "examples/*.md")
    for path in REPO.glob(pattern)
)

DOC_FILES = sorted(REPO.glob("docs/*.md"))

#: ``[text](target)`` — good enough for our docs (no nested brackets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline/reference targets that are not repo paths.
_EXTERNAL = ("http://", "https://", "mailto:", "#")


def _targets(text):
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        yield target.split("#", 1)[0]


def test_markdown_files_were_found():
    assert any(p.name == "README.md" for p in MARKDOWN_FILES)
    assert DOC_FILES, "docs/*.md missing"


@pytest.mark.parametrize(
    "path", MARKDOWN_FILES, ids=lambda p: str(p.relative_to(REPO))
)
def test_intra_repo_links_resolve(path):
    dead = [
        target
        for target in _targets(path.read_text(encoding="utf-8"))
        if target and not (path.parent / target).exists()
    ]
    assert not dead, f"dead links in {path.name}: {dead}"


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=lambda p: p.name
)
def test_docs_doctest_blocks_run(path):
    # Equivalent to ``python -m doctest docs/<name>.md``: doctest
    # picks up every ``>>>`` example in the file, including those in
    # fenced code blocks.
    failures, tested = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    assert failures == 0, f"{failures} doctest failure(s) in {path.name}"


#: Prose that names measurement artefacts and scripts by path.
NAMING_FILES = sorted(
    path
    for pattern in ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/*.md")
    for path in REPO.glob(pattern)
)

#: A committed artefact (``BENCH_x.json``) or script (``tools/x.py``).
_NAMED_PATH = re.compile(r"(?<![\w/.])(BENCH_\w+\.json|tools/\w+\.py)")


@pytest.mark.parametrize(
    "path", NAMING_FILES, ids=lambda p: str(p.relative_to(REPO))
)
def test_named_artefacts_and_tools_exist(path):
    missing = sorted({
        name
        for name in _NAMED_PATH.findall(path.read_text(encoding="utf-8"))
        if not (REPO / name).exists()
    })
    assert not missing, f"{path.name} names missing files: {missing}"


def test_observability_doc_has_runnable_examples():
    # The observability guide must actually demonstrate the API, not
    # just describe it: at least one ``>>>`` example is required.
    text = (REPO / "docs" / "observability.md").read_text()
    assert ">>>" in text
