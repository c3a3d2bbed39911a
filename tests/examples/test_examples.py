"""Every example script must run clean — they are part of the API
contract (each asserts its own correctness before printing OK)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert "quickstart.py" in SCRIPTS
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert "OK" in result.stdout or "note:" in result.stdout


def test_replicated_group_fails_over_between_two_os_processes():
    """The {socket} × {groups} cell: replicas and the served group
    directory in a child process, the failing-over client here."""
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "replicated_group.py"),
            "--two-process",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"two-process mode failed:\n{result.stdout}\n{result.stderr}"
    )
    assert "server OK" in result.stdout
    assert result.stdout.rstrip().endswith("OK")
