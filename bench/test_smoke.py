"""``pytest bench/``: the benchmark still runs and still reports every
workload and metric it promises.  Not part of the tier-1 test paths.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"

    catalogue = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    artefact = json.loads(out.read_text())
    assert list(artefact["workloads"]) == [
        w["name"] for w in catalogue["workloads"]]
    for key in ("cores", "affinity", "python", "numpy", "kernel", "commit"):
        assert key in artefact["host"]
    for workload, section in artefact["workloads"].items():
        assert NAME.fullmatch(workload)
        assert section["end_to_end"]["error_rate"]["value"] == 0
        for kind in ("end_to_end", "per_layer"):
            for entry in catalogue[kind]:
                cell = section[kind][entry["name"]]
                assert NAME.fullmatch(entry["name"])
                assert cell["unit"] == entry["unit"]
                if cell["value"] is None:
                    assert kind == "per_layer" and cell["reason"]
                else:
                    assert cell["value"] == cell["value"]  # not NaN
                # The report prints every metric by name and unit.
                assert re.search(
                    rf"^  {re.escape(entry['name'])} .*"
                    rf"({re.escape(entry['unit'])}|null)", done.stdout, re.M)
