"""The paper's tables, pinned: ``python -m repro.bench all`` must print
``paper_tables.txt`` byte for byte.

Every figure the reproduction reports comes from the simulator, so a
change to its stages, link or calibration that moves any printed
number fails here.  A change that means to move them regenerates the
file with ``PYTHONPATH=src python -m repro.bench all >
tests/simnet/paper_tables.txt`` and says why.
"""

from pathlib import Path

from repro.bench.__main__ import main

GOLDEN = Path(__file__).with_name("paper_tables.txt")


def test_paper_tables_print_the_golden_output(capsys):
    assert main(["all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
