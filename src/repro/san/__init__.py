"""repro.san — the PARDIS runtime sanitizer.

The static lints (:mod:`repro.lint`) prove what they can from the
source; this package verifies the same SPMD invariants *dynamically*,
on the paths the analyzer cannot see (data-dependent divergence,
suppressed diagnostics, code built at run time).  Two detectors:

* **collective alignment** (:mod:`repro.san.collective`) — before a
  collective invocation enters the engine, the ranks agree a digest
  of ``(operation, collective_index)``; a divergent rank produces an
  immediate :class:`SanitizerError` naming both operations and call
  sites instead of the silent cross-matched deadlock of §2.
* **future lifecycle** (:mod:`repro.san.futures`) — the dynamic
  counterpart of lint rule PD202: a future finalized with a
  never-retrieved exception, or whose result was never consumed, is
  reported with the call site that created it.

Everything is opt-in: set ``PARDIS_SAN=1`` in the environment or pass
``ORB(sanitize=True)``.  Findings accumulate in a process-wide
registry surfaced through ``orb.stats()["san"]`` and the trace
metrics registry; ``PARDIS_SAN_LOG=<path>`` additionally appends one
JSON line per finding (how CI asserts a zero-finding run).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Finding",
    "SanitizerError",
    "call_site",
    "clear_findings",
    "enabled",
    "findings",
    "record",
    "stats",
    "timeout",
]

_TRUE = frozenset(("1", "true", "yes", "on"))


class SanitizerError(RuntimeError):
    """A sanitizer detector proved an invariant violation.

    Raised synchronously on the offending thread (collective
    divergence); lifecycle detectors only record findings.
    """


@dataclass
class Finding:
    """One detector hit."""

    detector: str  # 'collective' | 'future'
    message: str
    site: str = ""  # 'file:line' of the application call site
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "message": self.message,
            "site": self.site,
            **({"extra": dict(self.extra)} if self.extra else {}),
        }

    def render(self) -> str:
        where = f" at {self.site}" if self.site else ""
        return f"[san:{self.detector}]{where}: {self.message}"


_lock = threading.Lock()
_findings: list[Finding] = []
_counters: dict[str, int] = {}


def enabled() -> bool:
    """Is the sanitizer globally enabled (``PARDIS_SAN=1``)?"""
    return os.environ.get("PARDIS_SAN", "").lower() in _TRUE


def timeout() -> float:
    """How long alignment checks wait for lagging ranks before
    declaring divergence (``PARDIS_SAN_TIMEOUT`` seconds, default
    20).  Bounded so a rank that *skipped* a collective produces a
    diagnostic, not the very hang the sanitizer exists to prevent."""
    try:
        return float(os.environ.get("PARDIS_SAN_TIMEOUT", "20"))
    except ValueError:
        return 20.0


def record(finding: Finding) -> Finding:
    """Register a finding (thread-safe) and mirror it to the
    ``PARDIS_SAN_LOG`` file when configured."""
    with _lock:
        _findings.append(finding)
        _counters[finding.detector] = (
            _counters.get(finding.detector, 0) + 1
        )
    log_path = os.environ.get("PARDIS_SAN_LOG")
    if log_path:
        try:
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(finding.to_dict()) + "\n")
        except OSError:
            pass  # never let reporting break the program
    return finding


def bump(counter: str, by: int = 1) -> None:
    """Increment a sanitizer activity counter (checks performed,
    futures tracked — the denominator that makes a zero-finding run
    meaningful)."""
    with _lock:
        _counters[counter] = _counters.get(counter, 0) + by


def findings() -> list[Finding]:
    with _lock:
        return list(_findings)


def clear_findings() -> list[Finding]:
    """Drain the registry (tests provoke findings on purpose and must
    not leak them into the process-wide zero-finding assertion)."""
    global _findings
    with _lock:
        drained, _findings = _findings, []
        return drained


def stats() -> dict[str, Any]:
    """The ``orb.stats()["san"]`` / metrics-source snapshot."""
    with _lock:
        return {
            "enabled": enabled(),
            "counters": dict(sorted(_counters.items())),
            "findings": [f.to_dict() for f in _findings],
        }


def call_site(skip_prefix: str = "repro.") -> str:
    """The nearest stack frame outside the ORB internals, as
    ``file:line`` — the application statement a finding points at.

    Skips ``repro.*`` frames and IDL-generated stub frames (their
    code objects carry ``<idl:...>`` filenames): both are plumbing
    between the application call and the detector.
    """
    frame = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        filename = frame.f_code.co_filename
        if not module.startswith(skip_prefix) and not (
            filename.startswith("<idl:")
        ):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _exit_summary() -> None:
    if not enabled():
        return
    found = findings()
    if not found:
        return
    print(
        f"pardis-san: {len(found)} finding(s)", file=sys.stderr
    )
    for finding in found:
        print(f"  {finding.render()}", file=sys.stderr)


atexit.register(_exit_summary)
