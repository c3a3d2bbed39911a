"""SPMD execution: run a function over ``n`` ranks.

The paper's computing threads — "a collaboration of computing threads,
each of which is working on a similar task" — map to Python threads
here.  :func:`spmd_run` is the fork-join entry point used by examples
and tests; :class:`SpmdExecutor` additionally supports detached groups
(an SPMD *server* keeps running its dispatch loop until shut down).

Since PR 7 a group can also run with every rank an OS *process*
(:mod:`repro.rts.procs`), which is what unlocks multi-core compute.
The ``backend`` argument — or the ``PARDIS_RTS`` environment variable,
see :mod:`repro.rts.backends` — selects per launch; the spawned
handle's surface (``join``/``abort``/``alive``) is identical either
way, so callers need not care which they got.

Error containment: when any rank raises, the group is aborted so peers
blocked in sends/receives/collectives fail fast with
:class:`~repro.rts.mpi.GroupAbortedError` instead of hanging, and the
original exception is re-raised to the caller.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import clock
from repro.rts import backends
from repro.rts.mpi import GroupAbortedError, Intracomm, create_group


@dataclass
class RankContext:
    """Everything a rank's function receives: identity plus comm."""

    rank: int
    size: int
    comm: Intracomm

    def __repr__(self) -> str:
        return f"<RankContext {self.rank}/{self.size}>"


class SpmdError(RuntimeError):
    """A rank of an SPMD run raised; carries the per-rank failures."""

    def __init__(
        self, name: str, failures: dict[int, BaseException]
    ) -> None:
        detail = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}"
            for r, e in sorted(failures.items())
        )
        super().__init__(f"SPMD group '{name}' failed — {detail}")
        self.failures = failures


def raise_rank_failures(
    name: str, failures: dict[int, BaseException]
) -> None:
    """Raise :class:`SpmdError` for a joined group's ``failures``, if
    any.  Peer aborts (:class:`GroupAbortedError`) are echoes of the
    rank that raised first, so they are reported only when nothing
    else is."""
    primary = {
        r: e
        for r, e in failures.items()
        if not isinstance(e, GroupAbortedError)
    }
    if failures:
        raise SpmdError(name, primary or dict(failures))


class SpmdHandle:
    """A running (possibly detached) SPMD group."""

    def __init__(
        self,
        name: str,
        comms: list[Intracomm],
        threads: list[threading.Thread],
        results: list[Any],
        failures: dict[int, BaseException],
    ) -> None:
        self._name = name
        self._comms = comms
        self._threads = threads
        self._results = results
        self._failures = failures

    @property
    def size(self) -> int:
        return len(self._threads)

    def alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    def join(self, timeout: float | None = None) -> list[Any]:
        """Wait for all ranks; return per-rank results in rank order.

        Raises :class:`SpmdError` if any rank raised (peer aborts are
        folded into the primary failure rather than reported alongside
        it).  ``timeout`` bounds the whole group, not each rank.
        """
        deadline = None if timeout is None else clock.now() + timeout
        for thread in self._threads:
            thread.join(None if deadline is None else deadline - clock.now())
            if thread.is_alive():
                raise TimeoutError(
                    f"SPMD group '{self._name}' did not finish within "
                    f"{timeout} seconds"
                )
        raise_rank_failures(self._name, self._failures)
        return list(self._results)

    def abort(self, reason: str = "aborted by caller") -> None:
        """Abort the group: blocked ranks raise GroupAbortedError."""
        if self._comms:
            self._comms[0].abort(reason)


class SpmdExecutor:
    """Factory for SPMD groups of a fixed size.

    ``backend`` may be ``"thread"``, ``"process"``, or None (consult
    ``PARDIS_RTS``, default thread).  Process groups are spawned via
    :func:`repro.rts.procs.spawn_process_group` and return a
    :class:`repro.rts.procs.ProcHandle`, whose join/abort surface
    matches :class:`SpmdHandle`.
    """

    def __init__(
        self,
        nranks: int,
        name: str = "spmd",
        backend: str | None = None,
    ) -> None:
        if nranks <= 0:
            raise ValueError("an SPMD group needs at least one rank")
        self.nranks = nranks
        self.name = name
        self.backend = backend

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        rank_args: Sequence[Sequence[Any]] | None = None,
    ):
        """Start ``fn(ctx, *args)`` on every rank; return immediately.

        ``rank_args`` optionally appends per-rank positional arguments
        (entry ``r`` goes to rank ``r``).
        """
        if rank_args is not None and len(rank_args) != self.nranks:
            raise ValueError(
                f"rank_args must have exactly {self.nranks} entries"
            )
        if backends.resolve_backend(self.backend) == backends.PROCESS:
            from repro.rts.procs import spawn_process_group

            return spawn_process_group(
                fn,
                self.nranks,
                *args,
                name=self.name,
                rank_args=rank_args,
            )
        comms = create_group(self.nranks, self.name)
        results: list[Any] = [None] * self.nranks
        failures: dict[int, BaseException] = {}
        failure_lock = threading.Lock()

        def body(rank: int) -> None:
            ctx = RankContext(rank=rank, size=self.nranks, comm=comms[rank])
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            backends.set_thread_context(rank, self.nranks)
            try:
                results[rank] = fn(ctx, *args, *extra)
            except BaseException as exc:  # noqa: BLE001 - reported via join
                with failure_lock:
                    failures[rank] = exc
                if not isinstance(exc, GroupAbortedError):
                    comms[rank].abort(
                        f"rank {rank} raised {type(exc).__name__}: {exc}"
                    )
            finally:
                backends.clear_thread_context()

        threads = [
            threading.Thread(
                target=body,
                args=(rank,),
                name=f"{self.name}-{rank}",
                daemon=True,
            )
            for rank in range(self.nranks)
        ]
        for thread in threads:
            thread.start()
        return SpmdHandle(self.name, comms, threads, results, failures)

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float | None = 120.0,
        rank_args: Sequence[Sequence[Any]] | None = None,
    ) -> list[Any]:
        """Fork-join: spawn, wait, return per-rank results."""
        return self.spawn(fn, *args, rank_args=rank_args).join(timeout)


def spmd_run(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    name: str = "spmd",
    timeout: float | None = 120.0,
    backend: str | None = None,
) -> list[Any]:
    """Run ``fn(ctx, *args)`` over ``nranks`` ranks and join.

    The convenience entry point::

        def body(ctx):
            return ctx.comm.allreduce(ctx.rank)

        totals = spmd_run(4, body)   # [6, 6, 6, 6]
    """
    return SpmdExecutor(nranks, name, backend=backend).run(
        fn, *args, timeout=timeout
    )


def spawn_spmd(
    fn: Callable[..., Any],
    size: int,
    *args: Any,
    backend: str | None = None,
    name: str = "spmd",
    rank_args: Sequence[Sequence[Any]] | None = None,
):
    """Launch a detached SPMD group on the chosen backend.

    The ISSUE-7 launcher: ``spawn_spmd(fn, 4, backend="process")``
    starts four forked rank processes and returns a handle;
    ``backend=None`` consults ``PARDIS_RTS`` and defaults to threads.
    ``handle.join()`` returns per-rank results in rank order.
    """
    return SpmdExecutor(size, name, backend=backend).spawn(
        fn, *args, rank_args=rank_args
    )
