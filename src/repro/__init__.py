"""PARDIS reproduction — a parallel approach to CORBA.

This package reproduces the system described in

    K. Keahey and D. Gannon, "PARDIS: A Parallel Approach to CORBA",
    Proc. 6th IEEE Int. Symposium on High Performance Distributed
    Computing (HPDC-6), 1997.

The public API is re-exported here; subpackages load lazily so that
importing :mod:`repro` stays cheap.  The subpackages are:

``repro.dist``
    Distribution templates and distributed sequences (paper §2.2).
``repro.cdr``
    CDR-style marshaling used by the ORB.
``repro.rts``
    The run-time-system interface: a thread-based MPI-like message
    passing library, the SPMD executor, and futures (paper §2.3).
``repro.idl``
    The IDL compiler: CORBA IDL plus the ``dsequence`` extension,
    generating Python proxies and skeletons (paper §2.1).
``repro.orb``
    The request broker: transport, naming, requests, the object
    adapter, and the two distributed-argument transfer methods
    (paper §3.2, §3.3).
``repro.core``
    The SPMD object model and high-level API tying it all together.
``repro.simnet``
    A discrete-event simulator of the paper's testbed used by the
    benchmark harness to regenerate Tables 1-2 and Figure 4.
``repro.ft``
    Fault tolerance: invocation policies (deadlines, retry/backoff),
    collective failure agreement, server-side request dedup, and the
    fault-injection fabric (see ``docs/robustness.md``).
``repro.trace``
    Collective-aware tracing and metrics: rank-tagged spans correlated
    by a trace id propagated in the request header, a metrics
    registry, and a Chrome-trace exporter (see
    ``docs/observability.md``).
``repro.groups``
    Replicated object groups: a group directory in the one naming
    service, deterministic client-side replica selection, and
    collective failover between replicas as an invocation-engine
    recovery action (see ``docs/architecture.md``).
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name → (module, attribute) for lazy loading.
_EXPORTS = {
    "BlockTemplate": ("repro.dist", "BlockTemplate"),
    "DistTemplate": ("repro.dist", "DistTemplate"),
    "DistributedSequence": ("repro.dist", "DistributedSequence"),
    "ExplicitTemplate": ("repro.dist", "ExplicitTemplate"),
    "Layout": ("repro.dist", "Layout"),
    "Proportions": ("repro.dist", "Proportions"),
    "transfer_schedule": ("repro.dist", "transfer_schedule"),
    "Future": ("repro.rts", "Future"),
    "Intracomm": ("repro.rts", "Intracomm"),
    "SpmdExecutor": ("repro.rts", "SpmdExecutor"),
    "spmd_run": ("repro.rts", "spmd_run"),
    "ORB": ("repro.core", "ORB"),
    "TransferMethod": ("repro.core", "TransferMethod"),
    "compile_idl": ("repro.idl", "compile_idl"),
    "compile_idl_module": ("repro.idl", "compile_idl_module"),
    "FtPolicy": ("repro.ft", "FtPolicy"),
    "FaultSchedule": ("repro.ft", "FaultSchedule"),
    "FaultyFabric": ("repro.ft", "FaultyFabric"),
    "DeadlineExceeded": ("repro.ft", "DeadlineExceeded"),
    "InvocationRetriesExhausted": (
        "repro.ft",
        "InvocationRetriesExhausted",
    ),
    "TraceRecorder": ("repro.trace", "TraceRecorder"),
    "MetricsRegistry": ("repro.trace", "MetricsRegistry"),
    "ReplicatedGroup": ("repro.groups", "ReplicatedGroup"),
    "FailoverExhausted": ("repro.groups", "FailoverExhausted"),
    "serve_replicated": ("repro.groups", "serve_replicated"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
