#!/usr/bin/env python
"""Where one benchmark workload's CPU goes, thread by thread.

Usage::

    python tools/thread_cpu.py <workload> [seconds]

Runs one timed window of a ``bench/workloads.py`` workload (after the
benchmark's own 200-call warm-up, pinned to one CPU like the benchmark
is) and reads ``/proc/self/task/*/schedstat`` around it.  Per thread
it prints, per completed operation:

- **cpu us/op** — time the thread spent on the CPU;
- **wait us/op** — time it sat runnable on the run queue (on one
  pinned CPU: waiting for another of the process's threads, i.e. the
  hand-offs);
- **slices/op** — how many times it was scheduled in.

This is the reading that sized ISSUE 15 (the small-invocation fast
path): a request's fixed cost is the sum of the first column, and the
number of rows with a non-trivial value is the number of threads it
crosses.  The tool imports ``bench``; nothing in ``bench/`` imports it.

Threads that end before the window does (a client runtime's worker)
are read from the last sample taken while they lived, at most
``SAMPLE_S`` stale.  Linux only.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

#: How often the task list is sampled while the window runs.
SAMPLE_S = 0.05


def read_schedstat() -> dict[int, tuple[int, int, int]]:
    """``{tid: (cpu ns, run-queue wait ns, time slices)}`` for every
    live thread of this process."""
    readings = {}
    for entry in os.listdir("/proc/self/task"):
        try:
            fields = Path(f"/proc/self/task/{entry}/schedstat").read_text()
        except OSError:
            continue  # the thread ended between listdir and the read
        cpu, wait, slices = (int(field) for field in fields.split())
        readings[int(entry)] = (cpu, wait, slices)
    return readings


def thread_names() -> dict[int, str]:
    return {
        thread.native_id: thread.name
        for thread in threading.enumerate()
        if thread.native_id is not None
    }


def measure(workload_name: str, seconds: float) -> tuple[int, list[tuple]]:
    """Run the window; returns ``(ops, rows)`` with one row
    ``(thread name, cpu ns, wait ns, slices)`` per thread."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import workloads

    workload = workloads.BY_NAME[workload_name]
    inputs = workloads.make_inputs(workload, seed=1)
    stack = workloads.Stack(workload)
    try:
        warm = workloads.run_client(stack, inputs, calls=200)
        if warm.failed:
            raise SystemExit(f"warm-up failed: {warm.errors}")
        names = thread_names()
        before = read_schedstat()
        last = dict(before)
        result: list = []
        runner = threading.Thread(
            target=lambda: result.append(
                workloads.run_client(stack, inputs, seconds=seconds)
            ),
            name="client-app",
        )
        runner.start()
        while runner.is_alive():
            runner.join(SAMPLE_S)
            names.update(thread_names())
            last.update(read_schedstat())
    finally:
        stack.close()
    if not result or result[0].failed:
        raise SystemExit(
            f"window failed: {result[0].errors if result else 'no result'}"
        )
    rows = []
    for tid, reading in last.items():
        base = before.get(tid, (0, 0, 0))
        rows.append((
            names.get(tid, f"tid-{tid}"),
            *(now - then for now, then in zip(reading, base)),
        ))
    return result[0].attempted, rows


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    seconds = float(argv[1]) if len(argv) == 2 else 5.0
    started = time.perf_counter()
    ops, rows = measure(argv[0], seconds)
    rows.sort(key=lambda row: -row[1])
    print(f"{argv[0]}: {ops} ops in a {seconds:g} s window "
          f"({time.perf_counter() - started:.1f} s with set-up)")
    print(f"{'thread':<34} {'cpu us/op':>10} {'wait us/op':>11} "
          f"{'slices/op':>10}")
    totals = [0, 0, 0]
    for name, cpu, wait, slices in rows:
        totals = [t + v for t, v in zip(totals, (cpu, wait, slices))]
        print(f"{name:<34} {cpu / ops / 1e3:>10.1f} "
              f"{wait / ops / 1e3:>11.1f} {slices / ops:>10.2f}")
    print(f"{'total':<34} {totals[0] / ops / 1e3:>10.1f} "
          f"{totals[1] / ops / 1e3:>11.1f} {totals[2] / ops:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
