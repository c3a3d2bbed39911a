"""Server-side request dedup: the bounded reply cache.

Retries are only safe if a re-sent request whose *reply* was lost is
not re-executed — PARDIS operations mutate servant state, so at-least-
once delivery must become effectively-once execution.  Request ids are
already unique and retry-stable (the client re-sends under the same
64-bit id), which makes dedup a cache problem:

- The request intake asks :meth:`ReplyCache.admit` before enqueueing
  a decoded request.  ``"new"`` proceeds to execution; ``"in-progress"``
  means the original attempt is still executing (its reply will answer
  the retry too, so the duplicate is dropped); ``"replay"`` means the
  request already executed and its recorded reply — status frame plus
  any multiport result chunks — is re-sent without touching the
  servant.
- The engine records each reply as it sends it
  (:meth:`record_reply` / :meth:`record_chunks`), or calls
  :meth:`forget` when the reply was a system exception — re-executing
  a request that never ran to completion is the correct retry.

The cache is bounded by a byte budget over completed entries, evicting
least-recently-used.  An evicted entry makes a very late retry execute
twice — the budget is the knob trading memory for the retry window.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class _Entry:
    """A completed request's recorded reply."""

    __slots__ = ("reply", "chunks", "size")

    def __init__(self, reply: bytes | None) -> None:
        self.reply = reply
        self.chunks: dict[int, list[bytes]] = {}
        self.size = len(reply) if reply is not None else 0


class ReplyCache:
    """A bounded, thread-safe map of request id -> recorded reply."""

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._in_progress: set[int] = set()
        self._done: OrderedDict[int, _Entry] = OrderedDict()
        self._bytes = 0
        self._counts = {
            "admitted": 0,
            "duplicates_dropped": 0,
            "replays": 0,
            "evictions": 0,
            "forgotten": 0,
        }

    # -- admission (request intake) --------------------------------------

    def admit(self, request_id: int) -> str:
        """Classify an arriving request id.

        Returns ``"new"`` (execute it), ``"in-progress"`` (drop it:
        the original attempt's reply is still coming), or ``"replay"``
        (answer from the cache via :meth:`replay`).
        """
        with self._lock:
            if request_id in self._done:
                self._done.move_to_end(request_id)
                self._counts["replays"] += 1
                return "replay"
            if request_id in self._in_progress:
                self._counts["duplicates_dropped"] += 1
                return "in-progress"
            self._in_progress.add(request_id)
            self._counts["admitted"] += 1
            return "new"

    def replay(self, request_id: int) -> tuple[bytes | None, dict[int, list[bytes]]]:
        """The recorded ``(reply frame, chunks by destination rank)``
        for a request :meth:`admit` classified as a replay.

        ``(None, ...)`` means there is no reply frame to resend — the
        request was oneway, the entry was evicted, or (transiently, on
        a collective group) peer ranks recorded their chunks before
        rank 0 recorded the reply.
        """
        with self._lock:
            entry = self._done.get(request_id)
            if entry is None:
                # Evicted between admit and replay; nothing to resend
                # (the client's next retry will re-execute).
                return None, {}
            return entry.reply, {
                rank: list(frames)
                for rank, frames in entry.chunks.items()
            }

    # -- recording (engine rank 0) ---------------------------------------

    def record_reply(self, request_id: int, reply: bytes | None) -> None:
        """Complete an entry: the request executed and this reply frame
        was sent (``None`` for oneway requests, which have no reply —
        the entry then exists purely to swallow duplicates).

        On a collective group, peer ranks may have recorded result
        chunks for the request already; the reply frame merges into
        that entry rather than replacing it.
        """
        with self._lock:
            self._in_progress.discard(request_id)
            entry = self._done.get(request_id)
            if entry is None:
                entry = _Entry(reply)
                self._done[request_id] = entry
                self._bytes += entry.size
            elif reply is not None:
                entry.reply = reply
                entry.size += len(reply)
                self._bytes += len(reply)
            self._done.move_to_end(request_id)
            self._evict()

    def record_chunks(self, request_id: int, dst_rank: int, frame: bytes) -> None:
        """Append a multiport result-chunk frame sent to ``dst_rank``.

        Chunk sends (every rank) and the reply send (rank 0) are
        concurrent on a collective group, so this creates the entry if
        it does not exist yet — :meth:`record_reply` merges in later.
        """
        with self._lock:
            entry = self._done.get(request_id)
            if entry is None:
                if request_id not in self._in_progress:
                    return  # forgotten or evicted
                entry = _Entry(None)
                self._done[request_id] = entry
            entry.chunks.setdefault(dst_rank, []).append(frame)
            entry.size += len(frame)
            self._bytes += len(frame)
            self._evict()

    def forget(self, request_id: int) -> None:
        """Drop all record of a request (system-exception replies: the
        request did not complete, so a retry should re-execute)."""
        with self._lock:
            self._in_progress.discard(request_id)
            entry = self._done.pop(request_id, None)
            if entry is not None:
                self._bytes -= entry.size
            self._counts["forgotten"] += 1

    def _evict(self) -> None:
        while self._bytes > self.budget_bytes and len(self._done) > 1:
            _, entry = self._done.popitem(last=False)
            self._bytes -= entry.size
            self._counts["evictions"] += 1

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            stats = dict(self._counts)
            stats["entries"] = len(self._done)
            stats["bytes"] = self._bytes
        return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)
