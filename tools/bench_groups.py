#!/usr/bin/env python
"""Run the replicated-group benchmark and emit BENCH_groups.json.

Usage::

    PYTHONPATH=src python tools/bench_groups.py                # full run
    PYTHONPATH=src python tools/bench_groups.py --smoke        # CI subset
    PYTHONPATH=src python tools/bench_groups.py --smoke \\
        --gate 0.7                          # recovery-goodput gate

Drives pipelined invocation windows against a replicated echo group
bound through the ORB's naming directory, kills the replica the
client is bound to while a window is in flight, and records the
per-window goodput curve through detection, the client-side
failover, and the re-issue on the sibling.  ``--gate R``
fails (exit 1) when any invocation errors or is left uncompleted,
when the run does not perform exactly one failover, or when the
post-kill windows average below ``R`` times the pre-kill steady
state.  The ratio is machine-independent; absolute MB/s is reported
but never gated on.

See ``docs/robustness.md`` for the methodology.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.groups import (  # noqa: E402
    DEFAULT_KILL_WINDOW,
    DEFAULT_MIN_RATIO,
    DEFAULT_REPLICAS,
    DEFAULT_REQUESTS,
    DEFAULT_SIZE,
    DEFAULT_TIMEOUT_S,
    DEFAULT_WINDOWS,
    SMOKE_KILL_WINDOW,
    SMOKE_REQUESTS,
    SMOKE_SIZE,
    SMOKE_WINDOWS,
    format_groups,
    gate_failures,
    points_as_dicts,
    run_groups,
    summarize,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small payload, fewer windows (CI-friendly)",
    )
    parser.add_argument("--windows", type=int, default=None)
    parser.add_argument(
        "--kill-window",
        type=int,
        default=None,
        help="window index whose in-flight burst absorbs the kill",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--size", type=int, default=None, help="bytes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="background frame-loss probability under the kill",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT_S,
        help="per-attempt timeout in seconds (bounds detection cost)",
    )
    parser.add_argument(
        "--gate",
        type=float,
        nargs="?",
        const=DEFAULT_MIN_RATIO,
        default=None,
        metavar="RATIO",
        help="fail unless recovery goodput reaches RATIO x steady "
        f"state (default {DEFAULT_MIN_RATIO}) with zero errors",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="JSON",
        help="gate a committed results file instead of running the "
        "bench (used by CI against BENCH_groups.json)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write results JSON here",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        from repro.bench.groups import GroupWindow

        payload = json.loads(args.check.read_text())
        points = [GroupWindow(**d) for d in payload["results"]]
        ratio = args.gate if args.gate is not None else DEFAULT_MIN_RATIO
        print(format_groups(points))
        failures = gate_failures(points, min_ratio=ratio)
        print(
            f"\ncommitted-curve gate ({args.check}): zero errors, "
            f"one failover, recovery >= {ratio:.2f}x steady state"
        )
        for line in failures or ["  committed curve ok"]:
            print(f"  {line}" if line != "  committed curve ok" else line)
        if failures:
            print(f"{len(failures)} check(s) failed the gate")
            return 1
        return 0

    windows = args.windows or (
        SMOKE_WINDOWS if args.smoke else DEFAULT_WINDOWS
    )
    kill_window = (
        args.kill_window
        if args.kill_window is not None
        else (SMOKE_KILL_WINDOW if args.smoke else DEFAULT_KILL_WINDOW)
    )
    requests = args.requests or (
        SMOKE_REQUESTS if args.smoke else DEFAULT_REQUESTS
    )
    size = args.size or (SMOKE_SIZE if args.smoke else DEFAULT_SIZE)

    points = run_groups(
        replicas=args.replicas,
        windows=windows,
        kill_window=kill_window,
        requests=requests,
        size_bytes=size,
        seed=args.seed,
        drop_rate=args.drop,
        timeout_s=args.timeout,
    )
    print(format_groups(points))

    failures = []
    if args.gate is not None:
        failures = gate_failures(points, min_ratio=args.gate)
        print(
            f"\ngroups gate: zero errors, one failover, recovery "
            f">= {args.gate:.2f}x steady state"
        )
        for line in failures or ["  all windows ok"]:
            print(
                f"  {line}" if line != "  all windows ok" else line
            )

    if args.out is not None:
        payload = {
            "benchmark": "groups",
            "units": {
                "goodput_mb_per_s": (
                    "completed payload MB per second of wall clock, "
                    "both directions"
                ),
            },
            "parameters": {
                "replicas": args.replicas,
                "windows": windows,
                "kill_window": kill_window,
                "requests_per_window": requests,
                "size_bytes": size,
                "seed": args.seed,
                "drop_rate": args.drop,
                "timeout_s": args.timeout,
            },
            "summary": summarize(points),
            "results": points_as_dicts(points),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if failures:
        print(f"{len(failures)} window(s)/check(s) failed the gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
