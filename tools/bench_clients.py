#!/usr/bin/env python
"""Run the client fan-in benchmark and emit BENCH_clients.json.

Usage::

    PYTHONPATH=src python tools/bench_clients.py               # full run
    PYTHONPATH=src python tools/bench_clients.py --smoke       # CI subset
    PYTHONPATH=src python tools/bench_clients.py --smoke \\
        --gate 0.8                          # flat-goodput gate

Sweeps simulated-client counts (100 → 10k full, 50 → 500 smoke)
against one event-loop server and records goodput per point: each
client is a distinct 64-bit identity running a window-1 closed loop
over a budgeted set of shared TCP connections.  ``--gate R`` fails
(exit 1) when any point records errors or drops below ``R`` times the
smallest point's goodput — the claim being gated is *flatness* of the
curve, never an absolute rate, so it is machine-independent.

See ``docs/scaling.md`` for the methodology.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.clients import (  # noqa: E402
    DEFAULT_CLIENTS,
    DEFAULT_CONNECTIONS,
    DEFAULT_MIN_RATIO,
    DEFAULT_REPEATS,
    DEFAULT_REQUESTS,
    DEFAULT_TIMEOUT_S,
    SMOKE_CLIENTS,
    SMOKE_CONNECTIONS,
    SMOKE_REPEATS,
    SMOKE_REQUESTS,
    format_clients,
    gate_failures,
    points_as_dicts,
    run_clients,
    summarize,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sweep within a CI runner's fd limit",
    )
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=None,
        help="client counts to sweep",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="total requests per point (split across clients)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=None,
        help="TCP connection budget identities multiplex over",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="measured rounds per point (the median round counts)",
    )
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT_S
    )
    parser.add_argument(
        "--gate",
        type=float,
        nargs="?",
        const=DEFAULT_MIN_RATIO,
        default=None,
        metavar="RATIO",
        help="fail unless every point's goodput reaches RATIO x the "
        f"smallest point's (default {DEFAULT_MIN_RATIO}) with zero "
        "errors",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="JSON",
        help="gate a committed results file instead of running the "
        "bench (used by CI against BENCH_clients.json)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write results JSON here",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        from repro.bench.clients import ClientPoint

        payload = json.loads(args.check.read_text())
        points = [ClientPoint(**d) for d in payload["results"]]
        ratio = args.gate if args.gate is not None else DEFAULT_MIN_RATIO
        print(format_clients(points))
        failures = gate_failures(points, min_ratio=ratio)
        print(
            f"\ncommitted-curve gate ({args.check}): zero errors, "
            f"every point >= {ratio:.2f}x the smallest point"
        )
        for line in failures or ["  committed curve ok"]:
            print(f"  {line}" if line != "  committed curve ok" else line)
        if failures:
            print(f"{len(failures)} check(s) failed the gate")
            return 1
        return 0

    clients = args.clients or (
        SMOKE_CLIENTS if args.smoke else DEFAULT_CLIENTS
    )
    requests = args.requests or (
        SMOKE_REQUESTS if args.smoke else DEFAULT_REQUESTS
    )
    connections = args.connections or (
        SMOKE_CONNECTIONS if args.smoke else DEFAULT_CONNECTIONS
    )
    repeats = args.repeats or (
        SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    )

    points = run_clients(
        clients=clients,
        total_requests=requests,
        connections=connections,
        repeats=repeats,
        timeout_s=args.timeout,
        verbose=True,
    )
    print(format_clients(points))

    failures = []
    if args.gate is not None:
        failures = gate_failures(points, min_ratio=args.gate)
        print(
            f"\nclients gate: zero errors, every point >= "
            f"{args.gate:.2f}x the smallest point's goodput"
        )
        for line in failures or ["  all points ok"]:
            print(f"  {line}" if line != "  all points ok" else line)

    if args.out is not None:
        payload = {
            "benchmark": "clients",
            "units": {
                "goodput_rps": (
                    "completed requests per second of wall clock "
                    "(the median of the measured rounds)"
                ),
            },
            "parameters": {
                "clients": clients,
                "total_requests": requests,
                "connections": connections,
                "repeats": repeats,
                "timeout_s": args.timeout,
            },
            "summary": summarize(points),
            "results": points_as_dicts(points),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if failures:
        print(f"{len(failures)} point(s)/check(s) failed the gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
