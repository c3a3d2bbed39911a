"""RTS backend selection and the current SPMD execution context.

PARDIS can run an SPMD group two ways:

- ``"thread"`` — every rank is a Python thread in this process (the
  original reproduction substrate; concurrency but, behind the GIL, no
  multi-core compute).
- ``"process"`` — every rank is an OS process
  (:mod:`repro.rts.procs`); ranks exchange large payloads through
  shared-memory segments, so compute *and* transfer scale with cores,
  like the paper's MPI-processes-on-SGI-nodes testbed.

The backend is picked per launch: an explicit ``backend=`` argument to
:func:`repro.rts.spawn_spmd` / :func:`repro.rts.spmd_run` /
:class:`repro.rts.SpmdExecutor` wins, otherwise the ``PARDIS_RTS``
environment variable, otherwise ``"thread"``.  Components that share
in-process state by construction (the ORB's servant groups and
in-process client helpers) pin ``"thread"`` explicitly.

This module also tracks *where the caller currently runs*: launchers
register each rank's identity (backend, rank, size) — thread ranks in
a thread-local, process ranks process-globally — so ``orb.stats()``
and :mod:`repro.trace` spans can tag measurements with the backend
that produced them.
"""

from __future__ import annotations

import os
import threading
from typing import Any

#: The valid backend names.
THREAD = "thread"
PROCESS = "process"
BACKENDS = (THREAD, PROCESS)

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "PARDIS_RTS"

#: Identity of a rank running in this *process* (set by the process
#: backend's child bootstrap; the parent keeps the default).
_process_context: dict[str, Any] = {}

#: Identity of a rank running on this *thread* (set by the thread
#: backend's rank bodies; empty elsewhere).
_thread_context = threading.local()


def resolve_backend(backend: str | None = None) -> str:
    """The backend a launcher should use: explicit > env > thread."""
    chosen = backend if backend is not None else os.environ.get(ENV_VAR)
    if chosen is None or chosen == "":
        return THREAD
    if chosen not in BACKENDS:
        raise ValueError(
            f"unknown RTS backend {chosen!r}; expected one of {BACKENDS}"
        )
    return chosen


def set_thread_context(rank: int, size: int) -> None:
    """Mark the calling thread as rank ``rank`` of a thread group."""
    _thread_context.ctx = {"backend": THREAD, "rank": rank, "size": size}


def clear_thread_context() -> None:
    """Drop this thread's rank context when its SPMD body returns."""
    _thread_context.ctx = None


def set_process_context(rank: int, size: int) -> None:
    """Mark this whole process as rank ``rank`` of a process group."""
    _process_context.update(
        {"backend": PROCESS, "rank": rank, "size": size}
    )


def current_context() -> dict[str, Any]:
    """Identity of the caller: backend name, rank, size.

    Inside a thread-backend rank body this is that rank's identity; in
    a process-backend child it is the child's rank; anywhere else it
    is the serial default (the backend a bare launch would resolve to,
    rank 0 of 1).
    """
    ctx = getattr(_thread_context, "ctx", None)
    if ctx is not None:
        return dict(ctx)
    if _process_context:
        return dict(_process_context)
    return {"backend": resolve_backend(), "rank": 0, "size": 1}


def active_backend() -> str | None:
    """The backend name of the calling rank, or None outside any SPMD
    rank.

    Trace spans use this so serial-code spans stay untagged: a tag
    asserts "this measurement ran on rank R of backend B", which is
    only meaningful inside a launched group.
    """
    ctx = getattr(_thread_context, "ctx", None)
    if ctx is not None:
        return ctx["backend"]
    if _process_context:
        return PROCESS
    return None


def rts_stats() -> dict[str, Any]:
    """The ``rts`` section of ``orb.stats()``: identity + shm pool."""
    from repro.rts import shm

    info = current_context()
    info["shm"] = shm.pool_stats()
    return info
