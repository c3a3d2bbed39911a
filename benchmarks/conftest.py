"""Benchmark-suite plumbing.

Each benchmark module registers its rendered table here; the terminal
summary prints them after pytest-benchmark's own timing table, so
``pytest benchmarks/ --benchmark-only`` reproduces the paper's tables
verbatim in its output.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

# The real fan-in point reuses the counted check of the tier-1 suite
# (``tests.orb.test_fanin_count``), whichever directory pytest runs in.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

_RENDERED: list[str] = []


def register_table(text: str) -> None:
    if text not in _RENDERED:
        _RENDERED.append(text)


@pytest.fixture(scope="session")
def paper_config():
    from repro.simnet import paper_testbed

    return paper_testbed()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RENDERED:
        return
    terminalreporter.section("PARDIS paper reproduction")
    for text in _RENDERED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
