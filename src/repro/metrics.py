"""Counters, histograms, and the metrics registry.

A :class:`Counter` is the one kind of tally in the stack, and a
:class:`MetricsRegistry` the one place tallies are named: every ORB
owns a registry from construction (``orb.metrics`` — the trace
recorder's when it has one), the components it builds take their
counters from it and hold the objects, and ``orb.stats()`` only reads
them.  Tallies are always on; what reads a clock or runs per frame
(:class:`Histogram` observations, the fabric meter) waits for
``trace=``.  Snapshot producers (``orb.stats`` itself) plug in as
*sources* and are folded into :meth:`MetricsRegistry.snapshot`.

A leaf: this module imports nothing of ours, so every layer —
:mod:`repro.cdr` included — can count.

Snapshots are JSON-ready and **deep-copied**: mutating a snapshot
never perturbs live counters, and later bumps never mutate an
already-taken snapshot.

>>> registry = MetricsRegistry()
>>> registry.counter("requests").inc(3)
>>> registry.histogram("latency_us", bounds=(10.0, 100.0)).observe(42.0)
>>> snap = registry.snapshot()
>>> snap["counters"]["requests"]
3
>>> snap["histograms"]["latency_us"]["count"]
1
"""

from __future__ import annotations

import copy
import threading
from threading import get_ident
from typing import Any, Callable, Mapping, Sequence

#: Default histogram bucket upper bounds — decades from 10 µs to 10 s,
#: suiting the span-duration histograms (recorded in microseconds).
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e1,
    1e2,
    1e3,
    1e4,
    1e5,
    1e6,
    1e7,
)


class Counter:
    """A monotonically increasing named tally.

    :meth:`inc` takes no lock: every writing thread adds to a cell of
    its own (keyed by thread ident; only that thread ever stores
    there, so no update is lost, and an ident reused by a later thread
    just continues a finished thread's cell), and :attr:`value` sums
    the cells.  Exact once writers quiesce, never behind by more than
    the increments in flight.
    """

    __slots__ = ("name", "_cells")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells: dict[int, int] = {}

    def inc(self, by: int = 1) -> None:
        cells = self._cells
        ident = get_ident()
        cells[ident] = cells.get(ident, 0) + by

    @property
    def value(self) -> int:
        # ``dict.copy`` is one C call: a consistent set of cells even
        # while another thread inserts its first.
        return sum(self._cells.copy().values())

    def snapshot(self) -> int:
        return self.value


class Histogram:
    """A fixed-bucket histogram with count/total/min/max.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in a final overflow bucket.
    """

    __slots__ = ("name", "bounds", "_lock", "_buckets", "_count", "_total", "_min", "_max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self._lock = threading.Lock()
        self._buckets = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._buckets[idx] += 1
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            mean = self._total / self._count if self._count else 0.0
            return {
                "count": self._count,
                "total": self._total,
                "mean": mean,
                "min": self._min,
                "max": self._max,
                "buckets": {
                    **{
                        f"le_{bound:g}": self._buckets[i]
                        for i, bound in enumerate(self.bounds)
                    },
                    "overflow": self._buckets[-1],
                },
            }


class MetricsRegistry:
    """Named counters and histograms plus pluggable snapshot sources.

    ``counter(name)`` / ``histogram(name)`` create on first use and
    return the same instance thereafter, so hot paths can cache the
    returned object.  ``adopt(counter)`` shows, under its own name, a
    counter its owner made and keeps (a fabric's server governor
    exists before any ORB does); several owners' counters of one name
    read as their sum.  ``register_source(name, fn)`` folds an external
    snapshot producer — e.g. ``orb.stats`` — into :meth:`snapshot`
    under ``sources[name]``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._adopted: list[Counter] = []
        self._sources: dict[str, Callable[[], Mapping[str, Any]]] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def adopt(self, counter: Counter) -> None:
        with self._lock:
            if not any(held is counter for held in self._adopted):
                self._adopted.append(counter)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, bounds)
            return histogram

    def register_source(
        self, name: str, fn: Callable[[], Mapping[str, Any]]
    ) -> None:
        with self._lock:
            self._sources[name] = fn

    def unregister_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    def snapshot(self, *, include_sources: bool = True) -> dict[str, Any]:
        """A deep-copied, JSON-ready snapshot of every counter,
        histogram, and (optionally) registered source."""
        with self._lock:
            counters = [*self._counters.values(), *self._adopted]
            histograms = dict(self._histograms)
            sources = dict(self._sources) if include_sources else {}
        values: dict[str, int] = {}
        for c in counters:
            values[c.name] = values.get(c.name, 0) + c.value
        snap: dict[str, Any] = {
            "counters": dict(sorted(values.items())),
            "histograms": {
                n: h.snapshot() for n, h in sorted(histograms.items())
            },
        }
        if include_sources:
            snap["sources"] = {
                name: copy.deepcopy(dict(fn()))
                for name, fn in sorted(sources.items())
            }
        return copy.deepcopy(snap)
