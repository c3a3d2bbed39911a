"""Test-side instruments on the two seams the stack already has.

- :class:`FrameMeter` is a fabric ``Meter`` (``fabric.add_meter``): it
  sees ``(src port, dest port, kind, nbytes)`` of every frame sent.
- :class:`Recording` stands in for the RTS object (or communicator) of
  a ``ServantContext`` / ``ClientRuntime`` and logs the collectives
  the engines ask of it, with the ``steps`` a gather/scatter moves —
  and, when asked, which thread made each call through it.

Neither needs a line of engine code: what an invocation puts on the
network and asks of its run-time system is all there is to a message
pattern.
"""

import threading

RECORDED = (
    "synchronize", "gather_views", "scatter_chunks", "broadcast",
    "allgather",
)


class FrameMeter:
    """Keeps every frame a fabric reports."""

    def __init__(self):
        self._lock = threading.Lock()
        self.frames = []

    def __call__(self, src, dest, kind, nbytes):
        with self._lock:
            self.frames.append((src, dest, kind, nbytes))

    def of_kind(self, kind):
        with self._lock:
            return [f for f in self.frames if f[2] == kind]


class Recording:
    """Delegates to an RTS or communicator, logging ``(name, steps)``
    for the collectives named in :data:`RECORDED` — ``steps`` is the
    schedule handed to ``gather_views``/``scatter_chunks``, ``None``
    otherwise (calls the wrapped object makes on itself are not seen:
    one engine call, one entry).  With a ``callers`` set, *every*
    method call through the delegate — point-to-point ones too — adds
    ``(calling thread's name, method name)`` to it."""

    def __init__(self, inner, log, callers=None):
        self._inner = inner
        self._log = log
        self._callers = callers

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr) or (
            name not in RECORDED and self._callers is None
        ):
            return attr

        def recorded(*args, **kw):
            if self._callers is not None:
                self._callers.add((threading.current_thread().name, name))
            if name in RECORDED:
                steps = args[1] if name.startswith(("gather", "scatter")) else None
                self._log.append((name, steps))
            return attr(*args, **kw)

        return recorded


def names(log):
    """The ordered collective names of a :class:`Recording` log."""
    return [name for name, _steps in log]


def moves(log, name):
    """``(src_rank, dst_rank, nelems)`` of every block a logged
    ``gather_views``/``scatter_chunks`` moved between two ranks."""
    return [
        (step.src_rank, step.dst_rank, step.nelems)
        for entry, steps in log
        if entry == name
        for step in steps
        if step.src_rank != step.dst_rank
    ]


def serve_recording(
    orb, servant_class, nthreads, callers=None, **serve_options
):
    """Activate ``servant_class`` as ``"example"`` with each rank's
    RTS and group communicator (the outcome votes go straight to the
    communicator) wrapped; returns the per-rank logs and the per-rank
    contexts."""
    logs = {rank: [] for rank in range(nthreads)}
    contexts = {}

    def factory(ctx):
        contexts[ctx.rank] = ctx
        if ctx.rts is not None:
            ctx.rts = Recording(ctx.rts, logs[ctx.rank], callers)
            ctx.comm = Recording(ctx.comm, logs[ctx.rank], callers)
        return servant_class()

    orb.serve("example", factory, nthreads, **serve_options)
    return logs, contexts
