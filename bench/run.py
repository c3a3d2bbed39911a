"""The repo benchmark: one entry point, four ways to call it.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as ``BENCHMARK.json`` promises: with
    ``--trace 0`` the end-to-end metrics (tracing off), with
    ``--trace 1`` the per-layer metrics (a traced window plus the
    probes).  The last line of standard output is one JSON object.

``python3 bench/run.py [--seed N] [--out FILE] [--smoke]``
    The full protocol: every workload, 3 repetitions of a 5 s window
    interleaved round-robin, then one traced run each; prints every
    metric by name and unit and writes the artefact.  ``--smoke`` is
    the same with 1 s windows, 1 repetition and reduced probes.

``python3 bench/run.py --check A.json B.json``
    Applies the bounds of ``BENCHMARK.json`` to two artefacts.

Every measurement runs in a fresh subprocess of this same file
(``--worker``), pinned to one CPU; see ``README.md`` for why.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before imports

import argparse  # noqa: E402
import ast  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

#: A worker that has not answered by then is killed and the run fails.
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Plan:
    """How much one run measures."""

    seconds: float
    warmup: int = 200
    #: Fresh set-ups per timed run; ``setup_s`` is their median.
    setups: int = 3
    #: Share of the full probe iteration counts.
    probe_scale: float = 1.0
    #: Require 10 samples beyond p95 in every window.
    strict: bool = True


# -- the self-check --------------------------------------------------------

#: ``_bind`` and ``_spmd_bind`` are the paper's public client API
#: (README "Key API points"); no other underscore name is.
PUBLIC_UNDERSCORE = {"_bind", "_spmd_bind"}
FORBIDDEN_MODULES = ("repro.bench", "tools")


def self_check() -> list[str]:
    """What in ``bench/*.py`` reaches past the public API."""
    found = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            modules: list[str] = []
            names: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                if not own and _is_private(node.attr):
                    found.append(f"{where}: uses .{node.attr}")
            for module in modules:
                if any(module == m or module.startswith(m + ".")
                       for m in FORBIDDEN_MODULES):
                    found.append(f"{where}: imports {module}")
                if any(_is_private(part) for part in module.split(".")):
                    found.append(f"{where}: imports private {module}")
            found.extend(f"{where}: imports private name {name}"
                         for name in names if _is_private(name))
    return found


def _is_private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder and name not in PUBLIC_UNDERSCORE


# -- the worker: one fresh process per measurement -------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(math.ceil(q * len(sorted_values)) - 1, 0)
    return sorted_values[rank]


#: The fewest samples that leave 10 beyond the 95th percentile.
P95_SAMPLES = 200


def summarize(window: Any, strict: bool) -> dict[str, Any]:
    """A timed window as end-to-end numbers, from its quiet half.

    The build host is a shared VM whose CPU runs up to 1.6x slower for
    seconds at a time, with no steal time reported (README, "Host
    noise").  Those seconds say nothing about the program, so the
    window is cut into slices, the slices are ranked by ops per second
    and only the faster half is pooled, plus as many more slices as it
    takes to hold the 200 samples p95 needs.  Every number below comes
    from that pool, on every commit alike.
    """
    slices = sorted(window.slices, reverse=True,
                    key=lambda s: len(s.latencies_us) / s.wall_s)
    keep = max(len(slices) // 2, 1)
    while keep < len(slices) and sum(
            len(s.latencies_us) for s in slices[:keep]) < P95_SAMPLES:
        keep += 1
    quiet = slices[:keep]
    latencies = sorted(l for s in quiet for l in s.latencies_us)
    if not latencies:
        raise RuntimeError(f"no op completed: {window.errors}")
    p95 = _percentile(latencies, 0.95)
    beyond = sum(1 for value in latencies if value > p95)
    if strict and beyond < 10:
        raise RuntimeError(
            f"only {beyond} samples beyond p95 of {len(latencies)}; "
            f"the window is too short for this percentile")
    ops = len(latencies)
    return {
        "latency_p50_us": _percentile(latencies, 0.50),
        "latency_p95_us": p95,
        "throughput_ops_s": ops / sum(s.wall_s for s in quiet),
        "cpu_us_per_op": sum(s.cpu_s for s in quiet) / ops * 1e6,
        "samples": ops,
        "samples_beyond_p95": beyond,
    }


def worker(args: argparse.Namespace) -> dict[str, Any]:
    """Runs in the child: set up, warm up, measure, tear down, check
    that nothing is left behind."""
    shm_before = set(_shm_entries())
    threads_before = threading.active_count()
    if args.pin >= 0:
        # Before any thread exists, so that every thread inherits it.
        os.sched_setaffinity(0, {args.pin})

    import layers
    import workloads

    import_s = time.perf_counter() - _T0
    workload = workloads.BY_NAME[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    traced = args.worker == "traced"
    recorder = layers.new_recorder() if traced else None
    stack = workloads.Stack(workload, trace=recorder)
    out: dict[str, Any] = {}
    try:
        warm = workloads.run_client(stack, inputs, calls=args.warmup)
        out["setup_s"] = time.perf_counter() - _T0
        attempted, failed, errors = warm.attempted, warm.failed, warm.errors
        if args.worker != "setup" and not failed:
            if traced:
                probes = layers.probe_cdr_and_request(
                    workload, inputs, stack, args.probe_scale)
                probes.update(layers.probe_wire(
                    workload, int(probes["orb.request.header_bytes"]),
                    args.probe_scale))
                if workload.client_ranks > 1:
                    probes.update(layers.probe_dist(workload, args.probe_scale))
                    probes.update(layers.probe_rts(workload, args.probe_scale))
                reader = layers.TracedWindow(stack, recorder)
            window = workloads.run_client(stack, inputs, seconds=args.seconds)
            attempted += window.attempted
            failed += window.failed
            errors = errors + window.errors
            out.update(summarize(window, bool(args.strict)))
            if traced:
                probes.update(reader.finish(
                    window, probes["orb.socketnet.echo_p50_us"]))
                probes.update({
                    "setup.import_s": import_s,
                    "setup.warmup_s": sum(s.wall_s for s in warm.slices),
                    "idl.compile_s": stack.compile_s,
                    "core.serve_s": stack.serve_s,
                    "orb.proxy.bind_us": warm.bind_us,
                    "orb.naming.resolve_us": stack.resolve_us,
                })
                out["layers"] = probes
    finally:
        leftovers = stack.close()
    # Tear-down hygiene: each miss counts as a failed op.
    deadline = time.monotonic() + 5
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    if threading.active_count() > threads_before:
        names = sorted(t.name for t in threading.enumerate())
        leftovers.append(f"threads left running: {names}")
    leaked = sorted(set(_shm_entries()) - shm_before)
    if leaked:
        leftovers.append(f"/dev/shm segments left: {leaked}")
    out.update({
        "attempted": attempted + len(leftovers),
        "failed": failed + len(leftovers),
        "errors": errors + leftovers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return out


def _shm_entries() -> list[str]:
    try:
        return os.listdir("/dev/shm")
    except OSError:
        return []


def pinned_cpu() -> int:
    """One allowed CPU: the highest, which is rarely the one that
    takes the host's interrupts."""
    return max(os.sched_getaffinity(0))


def spawn_worker(kind: str, workload: str, seed: int, plan: Plan,
                 pin: int) -> dict[str, Any]:
    """One measurement in a fresh process; waits for it to end."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", kind, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(plan.seconds), "--warmup", str(plan.warmup),
        "--probe-scale", repr(plan.probe_scale),
        "--strict", str(int(plan.strict)), "--pin", str(pin),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} worker for {workload} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- one run: what the driver calls ----------------------------------------


def _tally(parts: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
    }


def run_timed(workload: str, seed: int, plan: Plan) -> dict[str, Any]:
    """End-to-end metrics, tracing off."""
    pin = pinned_cpu()
    parts = [spawn_worker("setup", workload, seed, plan, pin)
             for _ in range(plan.setups - 1)]
    main = spawn_worker("timed", workload, seed, plan, pin)
    parts.append(main)
    values = {name: main[name] for name in (*END_TO_END, "latency_p95_us")
              if name in main}
    values["setup_s"] = statistics.median(p["setup_s"] for p in parts)
    return {"values": values, "samples": main.get("samples", 0),
            **_tally(parts)}


def run_traced(workload: str, seed: int, plan: Plan) -> dict[str, Any]:
    """Per-layer metrics: a traced window and the probes in one pinned
    worker, then two untraced windows for comparison: one pinned (the
    base of ``trace.overhead_ratio`` and the source of
    ``latency_p95_us``) and a short one free to roam."""
    pin = pinned_cpu()
    seconds = plan.seconds
    traced = spawn_worker("traced", workload, seed, replace(
        plan, seconds=seconds * 0.35, strict=False), pin)
    untraced = spawn_worker("timed", workload, seed, replace(
        plan, seconds=seconds * 0.45), pin)
    unpinned = spawn_worker("timed", workload, seed, replace(
        plan, seconds=seconds * 0.2, strict=False), -1)
    parts = [traced, untraced, unpinned]
    values = dict(traced.get("layers", {}))
    if all("throughput_ops_s" in p for p in parts):
        values["trace.overhead_ratio"] = (
            traced["throughput_ops_s"] / untraced["throughput_ops_s"])
        values["latency_p95_us"] = untraced["latency_p95_us"]
        values["proc.unpinned_latency_p50_us"] = unpinned["latency_p50_us"]
    return {"values": values, **_tally(parts)}


def single_run(args: argparse.Namespace) -> int:
    plan = Plan(args.seconds)
    catalogue = load_catalogue()
    if args.trace:
        result = run_traced(args.workload, args.seed, plan)
        wanted = catalogue["per_layer"]
    else:
        result = run_timed(args.workload, args.seed, plan)
        wanted = catalogue["end_to_end"]
    correct = result["failed"] == 0
    metrics = {}
    for entry in wanted:
        value = result["values"].get(entry["name"])
        if value is None:
            if not_applicable(entry["name"], args.workload) is None:
                correct = False
                result["errors"].append(f"{entry['name']} was not measured")
            # The contract wants a number for every metric on every
            # workload; the artefact of the full run says null here.
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for error in result["errors"]:
        print(f"bench: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# -- BENCHMARK.json and the catalogue --------------------------------------

#: Reported per workload by every timed run.  ``error_rate`` joins
#: them in the artefact; the one-run contract carries it as
#: ``failed``/``attempted`` because a bounded metric may never be 0.
#: ``latency_p95_us`` was demoted to per-layer: it does not repeat
#: within the widest bound allowed (README, "The bounds").
END_TO_END = ("setup_s", "latency_p50_us", "throughput_ops_s",
              "cpu_us_per_op", "peak_rss_mb")


def load_catalogue() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def not_applicable(metric: str, workload: str) -> str | None:
    """Why ``metric`` is not defined on ``workload`` (``None``: it is)."""
    import layers

    for entry in layers.CATALOGUE:
        if entry.name == metric and entry.only and workload not in entry.only:
            return entry.why_not
    return None


def catalogue_problems() -> list[str]:
    """``BENCHMARK.json`` must list what the code measures."""
    import layers
    import workloads

    doc = load_catalogue()
    problems = []
    if [w["name"] for w in doc["workloads"]] != [w.name for w in workloads.WORKLOADS]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"] for m in doc["end_to_end"]} != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if listed != [(m.name, m.unit, m.better) for m in layers.CATALOGUE]:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    return problems


# -- the full protocol -----------------------------------------------------


def host_record() -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": pinned_cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "commit": commit,
    }


def full_run(args: argparse.Namespace) -> int:
    import workloads

    if args.smoke:
        plan = Plan(1.0, warmup=20, setups=1, probe_scale=0.1, strict=False)
        repetitions = 1
    else:
        # One set-up per repetition: the repetitions are the samples.
        plan = Plan(5.0, setups=1)
        repetitions = 3
    catalogue = load_catalogue()
    names = [w.name for w in workloads.WORKLOADS]
    started = time.perf_counter()
    timed: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for repetition in range(repetitions):
        for name in names:  # round-robin: drift hits every workload alike
            print(f"bench: {name} repetition {repetition + 1}/{repetitions}",
                  file=sys.stderr)
            timed[name].append(run_timed(name, args.seed, plan))
    report: dict[str, Any] = {}
    failures = 0
    for name in names:
        print(f"bench: {name} traced run", file=sys.stderr)
        # p95 comes from the repetitions' longer windows, so the
        # traced run's short ones need not hold 200 samples.
        traced = run_traced(name, args.seed, replace(plan, strict=False))
        tails = [r["values"]["latency_p95_us"] for r in timed[name]
                 if "latency_p95_us" in r["values"]]
        if tails:
            traced["values"]["latency_p95_us"] = statistics.median(tails)
        runs = timed[name] + [traced]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        for entry in catalogue["end_to_end"]:
            samples = [r["values"][entry["name"]] for r in timed[name]
                       if entry["name"] in r["values"]]
            if len(samples) != repetitions:
                failed += 1
                continue
            end_to_end[entry["name"]] = {
                "value": statistics.median(samples), "unit": entry["unit"],
                "min": min(samples), "max": max(samples),
                "repetitions": samples,
            }
        end_to_end["error_rate"] = {"value": failed / attempted, "unit": "1"}
        per_layer = {}
        for entry in catalogue["per_layer"]:
            value = traced["values"].get(entry["name"])
            per_layer[entry["name"]] = {"value": value, "unit": entry["unit"]}
            if value is None:
                reason = not_applicable(entry["name"], name)
                per_layer[entry["name"]]["reason"] = reason or "not measured"
                failed += reason is None
        report[name] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": attempted, "failed": failed,
            "errors": [e for r in runs for e in r["errors"]],
            "samples_per_repetition": [r["samples"] for r in timed[name]],
        }
        failures += failed
    artefact = {
        "host": host_record(),
        "settings": {"seed": args.seed, "window_s": plan.seconds,
                     "repetitions": repetitions, "warmup_calls": plan.warmup,
                     "smoke": bool(args.smoke),
                     "wall_s": time.perf_counter() - started},
        "workloads": report,
    }
    print_report(artefact)
    if args.out:
        Path(args.out).write_text(json.dumps(artefact, indent=1) + "\n")
    return 1 if failures else 0


def print_report(artefact: dict[str, Any]) -> None:
    print(f"host: {json.dumps(artefact['host'])}")
    print(f"settings: {json.dumps(artefact['settings'])}")
    for name, section in artefact["workloads"].items():
        print(f"\n== {name}: {section['attempted']} ops, "
              f"{section['failed']} failed")
        for metric, cell in section["end_to_end"].items():
            spread = ""
            if "min" in cell:
                spread = f"   [{cell['min']:.6g} .. {cell['max']:.6g}]"
            print(f"  {metric:<32} {cell['value']:>14.6g} {cell['unit']}{spread}")
        for metric, cell in section["per_layer"].items():
            if cell["value"] is None:
                print(f"  {metric:<32} {'null':>14} ({cell['reason']})")
            else:
                print(f"  {metric:<32} {cell['value']:>14.6g} {cell['unit']}")
        for error in section["errors"]:
            print(f"  ERROR {error}")


# -- --check ---------------------------------------------------------------


def check(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric: B against A under the
    bounds of ``BENCHMARK.json``.

    ``ok``: B's median is no worse than A's by more than the bound and
    both files' repetitions spread less than the bound, or every
    repetition of B reads better than every repetition of A.
    ``unresolved``: the spread is wider than the bound.  ``regressed``:
    worse by more than the bound with a spread inside it.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    not_ok = 0
    print(f"{'workload':<18} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for workload in a:
        for entry in load_catalogue()["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            cell_a = a[workload]["end_to_end"][metric]
            cell_b = b[workload]["end_to_end"][metric]
            sign = 1 if entry["better"] == "lower" else -1
            worse = sign * (cell_b["value"] - cell_a["value"]) / cell_a["value"]
            spread = max((c["max"] - c["min"]) / c["value"]
                         for c in (cell_a, cell_b))
            if sign > 0:
                all_better = cell_b["max"] < cell_a["min"]
            else:
                all_better = cell_b["min"] > cell_a["max"]
            if all_better or (worse <= bound and spread <= bound):
                verdict = "ok"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            not_ok += verdict != "ok"
            print(f"{workload:<18} {metric:<18} {cell_a['value']:>12.6g} "
                  f"{cell_b['value']:>12.6g} {worse:>+9.1%} {spread:>8.1%} "
                  f"{bound:>6.0%}  {verdict}")
        rate_a = a[workload]["end_to_end"]["error_rate"]["value"]
        rate_b = b[workload]["end_to_end"]["error_rate"]["value"]
        verdict = "ok" if rate_b <= rate_a else "regressed"
        not_ok += verdict != "ok"
        print(f"{workload:<18} {'error_rate':<18} {rate_a:>12.6g} "
              f"{rate_b:>12.6g} {'':>9} {'':>8} {'none':>6}  {verdict}")
    return 1 if not_ok else 0


# -- command line ----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run's artefact here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"))
    # Internal: what spawn_worker passes to the child.
    parser.add_argument("--worker", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=int, default=200, help=argparse.SUPPRESS)
    parser.add_argument("--probe-scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--strict", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--pin", type=int, default=-1, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if args.check:
        return check(*args.check)
    try:
        problems = self_check() + catalogue_problems()
    except ImportError as exc:
        print(f"bench: the program under test is not here: {exc}",
              file=sys.stderr)
        return 2
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    if problems:
        return 2
    if args.workload:
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
