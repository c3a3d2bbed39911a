"""The ORB facade: one object wiring fabric, naming, servers, clients.

The paper's Figure 1 shows the PARDIS ORB between the client's and the
server's stub+package stacks, flanked by the two RTS interfaces.  This
class is that box: it owns the transport fabric and naming domain,
activates SPMD objects (server side) and mints per-thread client
runtimes (client side).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Any, Callable

import repro.san as san
from repro.cdr.accounting import CopyAccount
from repro.dist.schedule import schedule_cache_stats
from repro.ft.policy import FT_COUNTERS
from repro.groups.failover import GROUP_COUNTERS
from repro.metrics import MetricsRegistry
from repro.orb.adapter import Servant, ServantContext, ServantGroup
from repro.orb.naming import NamingService
from repro.orb.proxy import ClientRuntime
from repro.orb.transport import Fabric
from repro.rts import backends as rts_backends
from repro.rts.executor import SpmdExecutor
from repro.rts.mpi import Intracomm
from repro.trace import TraceRecorder


@dataclass
class ClientContext:
    """What a parallel client's thread function receives."""

    rank: int
    size: int
    comm: Intracomm | None
    runtime: ClientRuntime


class ORB:
    """The request broker instance.

    One ORB per "distributed system"; in this reproduction all
    components share a process, so the ORB's fabric is the network.
    """

    def __init__(
        self,
        name: str = "pardis",
        *,
        timeout: float = 60.0,
        fabric: Any = None,
        naming: Any = None,
        ft_policy: Any = None,
        trace: Any = None,
        sanitize: bool | None = None,
    ) -> None:
        """``fabric``/``naming`` default to the in-process transport
        and registry.  ``naming`` is any object with the naming
        surface (:mod:`repro.orb.naming`): to join a multi-process
        deployment over TCP pass a
        :class:`~repro.orb.socketnet.SocketFabric` and a
        :class:`~repro.orb.nameservice.NamingClient` bootstrapped from
        the IOR of the process that serves the naming object
        (:func:`~repro.orb.nameservice.serve_naming`).  ``ft_policy``
        is the ORB-wide default :class:`~repro.ft.policy.FtPolicy` applied by
        every client runtime this ORB mints (per-runtime and per-proxy
        policies override it).  ``trace`` turns on collective-aware
        tracing (:mod:`repro.trace`): pass ``True`` for a fresh
        :class:`~repro.trace.TraceRecorder` (exposed as
        :attr:`trace`), or an existing recorder to share one — and
        its metrics registry — across ORBs; ``None`` (the default)
        keeps spans and timings off with no per-invocation cost;
        tallies are on either way (:attr:`metrics`).  ``sanitize``
        turns on the runtime sanitizer (:mod:`repro.san`) for every
        client runtime this ORB mints — collective-alignment checks
        and future-lifecycle tracking; ``None`` (the default) defers
        to the ``PARDIS_SAN`` environment variable.  See
        ``docs/sanitizer.md``."""
        self.name = name
        self.fabric = fabric if fabric is not None else Fabric(name)
        self.naming = naming if naming is not None else NamingService()
        self.timeout = timeout
        self.ft_policy = ft_policy
        #: Runtime-sanitizer switch (None defers to ``PARDIS_SAN``);
        #: resolved once here so every runtime this ORB mints agrees.
        self.sanitize = (
            san.enabled() if sanitize is None else bool(sanitize)
        )
        #: The repro.trace recorder shared by every runtime and servant
        #: group this ORB creates (None = tracing off).
        # Identity tests, not truthiness: an *empty* recorder is falsy
        # (``__len__``) but still means tracing is on.
        if trace is True:
            self.trace: TraceRecorder | None = TraceRecorder()
        elif trace is False or trace is None:
            self.trace = None
        else:
            self.trace = trace
        #: Where this ORB's tallies are named — always there; the
        #: recorder's registry when tracing is on, so ORBs that share
        #: a recorder share one merged ledger and ORBs that do not are
        #: disjoint.
        self.metrics: MetricsRegistry = (
            MetricsRegistry() if self.trace is None else self.trace.metrics
        )
        self._ft = {n: self.metrics.counter(f"ft.{n}") for n in FT_COUNTERS}
        self._group_counters = {
            n: self.metrics.counter(f"groups.{n}") for n in GROUP_COUNTERS
        }
        self._groups: list[ServantGroup] = []
        #: Open client runtimes (a runtime leaves when it closes).
        self._runtimes: list[ClientRuntime] = []
        self._lock = threading.Lock()
        self._shut = False
        #: Wire-path copies made in the process over this ORB's life.
        self._copy_account = CopyAccount()
        self._fabric_meter: Any = None
        governor = self.fabric.governor
        if governor is not None:
            for counter in governor.counters.values():
                self.metrics.adopt(counter)
        if self.trace is not None:
            # Fold the ORB's own snapshot into the registry so
            # ``orb.trace.metrics.snapshot()`` is the one-stop view;
            # ``stats()`` asks for counters/histograms only
            # (include_sources=False), so the two never recurse.
            self.trace.metrics.register_source(f"orb.{name}", self.stats)
            self._fabric_meter = self.trace.fabric_meter()
            self.fabric.add_meter(self._fabric_meter)

    # -- server side ---------------------------------------------------------

    def serve(
        self,
        name: str,
        servant_factory: Callable[[ServantContext], Servant],
        nthreads: int = 1,
        *,
        host: str = "",
        multiport: bool = True,
        templates: dict[tuple[str, str], Any] | None = None,
        reply_cache_bytes: int = 0,
    ) -> ServantGroup:
        """Activate an SPMD object and register it with naming.

        ``servant_factory(ctx)`` runs once on every computing thread
        and returns that thread's servant instance.  ``templates``
        maps ``(operation, parameter)`` to the distribution template
        the servant registers for that distributed parameter (§2.2's
        pre-registration assignment); unlisted parameters default to
        uniform blockwise.  ``multiport=False`` activates an object
        that only advertises the single centralized connection.  A
        *serial* (``nthreads == 1``) object runs one client's requests
        in send order, on its rank thread first; different clients
        overlap on at most :data:`~repro.orb.adapter.DISPATCH_THREADS`
        threads, started only as they do.  ``reply_cache_bytes``
        enables server-side request dedup for client retries: a
        positive byte budget records sent replies so a retried
        request whose reply was lost is answered from the cache
        instead of re-executed (see
        :mod:`repro.ft.dedup`; lint rule PD209 flags retrying
        clients of a cache-less server).  A dispatched request's
        server-side waits (chunk collection from a client whose data
        path died) are bounded by the ORB ``timeout``, so a
        short-deadline ORB also fails fast server-side.  A collective
        object's ``ctx.rts`` is the one
        :class:`~repro.rts.RuntimeSystem` over its ranks' communicator
        (:func:`repro.rts.rts_for`), a plain attribute a factory may
        wrap.
        """
        group = ServantGroup(
            self.fabric,
            self.naming,
            name,
            servant_factory,
            nthreads,
            host=host,
            multiport=multiport,
            templates=templates,
            trace=self.trace,
            reply_cache_bytes=reply_cache_bytes,
            request_timeout=self.timeout,
        )
        group.start()
        self._groups.append(group)
        return group

    def serve_replicated(
        self,
        name: str,
        servant_factory: Callable[[ServantContext], Servant],
        *,
        replicas: int = 3,
        nthreads: int = 1,
        **serve_kwargs: Any,
    ) -> Any:
        """Activate a *replicated object group*: ``replicas``
        independent activations of one servant behind one group name,
        registered with the group directory of this ORB's naming
        object (local or served; see
        :func:`repro.groups.serve.serve_replicated` for details and
        the returned :class:`~repro.groups.serve.ReplicatedGroup`
        handle).  Clients bind with ``Proxy._group_bind`` and fail
        over between replicas under their
        :class:`~repro.ft.policy.FtPolicy`."""
        from repro.groups.serve import serve_replicated

        return serve_replicated(
            self,
            name,
            servant_factory,
            replicas=replicas,
            nthreads=nthreads,
            **serve_kwargs,
        )

    # -- client side ---------------------------------------------------------

    def client_runtime(
        self,
        comm: Intracomm | None = None,
        *,
        label: str = "client",
        pipeline_depth: int = 8,
        ft_policy: Any = None,
    ) -> ClientRuntime:
        """Create the per-thread client runtime (collective when
        ``comm`` is a group communicator; serial when ``None``).

        ``pipeline_depth`` caps how many non-blocking invocations
        this runtime keeps in flight at once (1 restores strictly
        serial round-trips).  ``ft_policy`` overrides the ORB-wide
        fault-tolerance policy for this runtime (``None`` inherits
        it).  ``runtime.rts`` is the :class:`~repro.rts.RuntimeSystem`
        over ``comm`` (:func:`repro.rts.rts_for`), whichever kernel
        carries its ranks; it is assignable, so a caller may wrap it.
        """
        runtime = ClientRuntime(
            self.fabric,
            self.naming,
            comm,
            trace=self.trace,
            timeout=self.timeout,
            label=label,
            pipeline_depth=pipeline_depth,
            ft_policy=ft_policy if ft_policy is not None else self.ft_policy,
            sanitize=self.sanitize,
            orb=self,
        )
        with self._lock:
            self._runtimes.append(runtime)
        return runtime

    def runtime_closed(self, runtime: ClientRuntime) -> None:
        """Called by a runtime this ORB minted as it closes: the ORB
        keeps only the open ones, for :meth:`shutdown` to close."""
        with self._lock:
            if runtime in self._runtimes:
                self._runtimes.remove(runtime)

    def run_spmd_client(
        self,
        nthreads: int,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "client",
        timeout: float = 120.0,
    ) -> list[Any]:
        """Run a parallel client: ``fn(client_ctx, *args)`` on each of
        ``nthreads`` threads, with a ready-made runtime per thread.

        The convenience wrapper for the common pattern in the paper's
        example: a parallel application that binds to an SPMD object
        and invokes it collectively.
        """
        executor = SpmdExecutor(nthreads, name=name, backend="thread")

        def body(rank_ctx: Any) -> Any:
            comm = rank_ctx.comm if nthreads > 1 else None
            runtime = self.client_runtime(comm, label=name)
            try:
                return fn(
                    ClientContext(
                        rank=rank_ctx.rank,
                        size=nthreads,
                        comm=comm,
                        runtime=runtime,
                    ),
                    *args,
                )
            finally:
                runtime.close()

        return executor.run(body, timeout=timeout)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One observability snapshot of the ORB's moving parts — a
        projection: every number is read from where it is counted
        (:attr:`metrics`, or the ``stats()`` the fabric, naming object
        and reply caches declare), none is kept here.

        Per ORB: ``ft`` (the six client fault-tolerance tallies of
        :data:`~repro.ft.policy.FT_COUNTERS`, present from
        construction and still carrying what runtimes since closed
        counted), ``reply_caches`` (server-side dedup counters per
        activated group), the binding half of ``groups`` (binds,
        selections, failovers) and — when tracing is on — ``trace``
        (recorder occupancy plus the counters/histograms of the
        registry; ORBs handed one recorder share it).  Per fabric:
        ``fabric`` (its own :meth:`Fabric.stats
        <repro.orb.transport.Fabric.stats>` section — socket fabrics
        report ``dropped_frames`` and ``pulled_frames``; a
        fault-injecting fabric adds its
        ``faults`` tally) and ``server`` (socket fabrics only: the
        event loop's backpressure counters; see
        ``docs/scaling.md``).  Per naming object: the directory half
        of ``groups`` (``marked_down``, ``epoch_bumps`` and the
        per-group membership/epoch board; zeros and an empty board on
        a ``NamingClient``, whose directory is counted by the ORB that
        serves it).
        Per *process*, whichever ORB is asked: ``cdr_copies``
        (wire-path copies made since this ORB was built),
        ``transfer_schedule_cache`` (LRU hit/miss for §3.3 chunk
        schedules), ``san`` (the :mod:`repro.san` sanitizer's counters
        and findings — see ``docs/sanitizer.md``) and ``rts`` (the RTS
        execution context plus shared-memory segment counters from the
        process backend's pool).  See ``docs/observability.md`` for
        the full schema.

        The returned dict is a deep copy taken at the snapshot
        boundary: callers may mutate it (or hold it across later ORB
        activity) without perturbing live state, and live state never
        mutates an already-returned snapshot.
        """
        reply_caches = {
            group.name: group.reply_cache.stats()
            for group in self._groups
            if group.reply_cache is not None
        }
        copied_bytes, copy_events = self._copy_account.snapshot()
        snapshot: dict[str, Any] = {
            "fabric": self.fabric.stats(),
            "transfer_schedule_cache": schedule_cache_stats(),
            "cdr_copies": {"bytes": copied_bytes, "events": copy_events},
            "ft": {n: c.value for n, c in self._ft.items()},
            "reply_caches": reply_caches,
            # Process-wide sanitizer snapshot (detector counters and
            # findings); {"enabled": False, ...} when the sanitizer
            # is off.
            "san": san.stats(),
            # RTS execution context (backend name, rank, size) plus
            # shared-memory segment accounting for the process
            # backend's data plane.
            "rts": rts_backends.rts_stats(),
            # Replicated groups: what this ORB's bindings did (binds,
            # selections, failovers), then what its naming object's
            # directory saw, with the per-group membership board.
            "groups": {
                **{n: c.value for n, c in self._group_counters.items()},
                **self.naming.stats(),
            },
        }
        governor = self.fabric.governor
        if governor is not None:
            # Socket-fabric servers: event-loop backpressure counters
            # (connections, in-flight requests, paused clients).  See
            # docs/scaling.md.
            snapshot["server"] = governor.snapshot()
        if self.trace is not None:
            snapshot["trace"] = {
                "recorder": self.trace.stats(),
                # Counters/histograms only: the registry's *sources*
                # include this very method (registered in __init__),
                # so folding them here would recurse.
                "metrics": self.trace.metrics.snapshot(
                    include_sources=False
                ),
            }
        return copy.deepcopy(snapshot)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Deactivate all objects and release client resources.

        Every group and every runtime is shut down whatever the
        others do; the first error (say the
        :class:`~repro.rts.executor.SpmdError` of a group whose ranks
        died) is re-raised once nothing is left running."""
        if self._shut:
            return
        self._shut = True
        self._copy_account.close()
        if self.trace is not None:
            self.trace.metrics.unregister_source(f"orb.{self.name}")
        if self._fabric_meter is not None:
            self.fabric.remove_meter(self._fabric_meter)
            self._fabric_meter = None
        with self._lock:
            runtimes, self._runtimes = self._runtimes, []
        groups, self._groups = self._groups, []
        first_error: Exception | None = None
        for stop in [g.shutdown for g in groups] + [
            r.close for r in runtimes
        ]:
            try:
                stop()
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ORB":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
