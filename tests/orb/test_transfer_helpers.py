"""Unit tests for transfer-engine building blocks (an operation plan's
slots, composition and body codec, the inbox)."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr.typecodes import (
    DSequenceTC,
    MarshalError,
    TC_DOUBLE,
    TC_LONG,
    TC_STRING,
    TC_VOID,
)
from repro.dist import Layout, transfer_schedule
from repro.orb.operation import (
    Direction,
    OperationPlan,
    OperationSpec,
    ParamSpec,
    RemoteError,
    compose,
    decompose,
)
from repro.orb.request import DataChunk, PHASE_REQUEST, ReplyMessage
from repro.orb.transfer import (
    Inbox,
    assemble_chunks,
)
from repro.orb.transport import (
    Fabric,
    KIND_DATA,
    KIND_REPLY,
    TransportError,
    TransportTimeout,
)

DS = DSequenceTC(TC_DOUBLE)


def spec(**kw):
    defaults = dict(
        name="op",
        params=(
            ParamSpec("a", Direction.IN, TC_LONG),
            ParamSpec("b", Direction.INOUT, DS),
            ParamSpec("c", Direction.OUT, TC_STRING),
            ParamSpec("d", Direction.OUT, DS),
            ParamSpec("e", Direction.INOUT, TC_LONG),
        ),
        return_tc=TC_DOUBLE,
    )
    defaults.update(kw)
    return OperationPlan(OperationSpec(**defaults))


class TestSlots:
    def test_request_slots_are_sent_params(self):
        assert spec().request_names == ("a", "b", "e")

    def test_reply_slots_return_first(self):
        names = spec().reply_names
        assert names == ("__return__", "b", "c", "d", "e")

    def test_void_return_omitted(self):
        assert spec(return_tc=TC_VOID).reply_names == ("b", "c", "d", "e")

    def test_produced_slots_skip_inout_dsequence(self):
        # 'b' (inout dsequence) is mutated in place, not produced.
        plan = spec()
        names = [plan.reply_names[i] for i in plan.produced]
        assert names == ["__return__", "c", "d", "e"]
        assert plan.inout == ((1, 1),)

    def test_distributed_flag(self):
        plan = spec()
        assert [d[1] for d in plan.dist_reply] == ["b", "d"]
        assert [d[1] for d in plan.dist_request] == ["b"]
        assert plan.staged and not spec(params=()).staged


class TestComposition:
    def test_compose_rules(self):
        assert compose([]) is None
        assert compose([7]) == 7
        assert compose([1, 2]) == (1, 2)

    def test_decompose_inverts(self):
        assert decompose(None, 0, "x") == []
        assert decompose(7, 1, "x") == [7]
        assert decompose((1, 2), 2, "x") == [1, 2]

    def test_decompose_arity_errors(self):
        with pytest.raises(RemoteError):
            decompose(5, 0, "servant")
        with pytest.raises(RemoteError):
            decompose(5, 2, "servant")
        with pytest.raises(RemoteError):
            decompose((1, 2, 3), 2, "servant")


class TestPlainBody:
    def test_roundtrip_skips_distributed(self):
        codec = spec().request[True]
        body = codec.encode([5, "IGNORED", -1]).getvalue()
        assert codec.decode(body) == [5, None, -1]


def make_chunk(rid, param, lo, hi, phase=PHASE_REQUEST):
    data = np.arange(lo, hi, dtype=np.float64)
    return DataChunk(rid, param, phase, 0, 0, lo, hi, data.tobytes())


def inbox_and_sender(timeout=60.0):
    fabric = Fabric()
    port, sender = fabric.open_port(), fabric.open_port()
    return Inbox(port, timeout), sender


class TestInboxChunks:
    def test_collects_expected_count(self):
        inbox, sender = inbox_and_sender()
        for chunk in (make_chunk(1, "x", 0, 4), make_chunk(1, "x", 4, 8)):
            sender.send(inbox.port.address, chunk.encode(), KIND_DATA)
        chunks = inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=5)
        assert len(chunks) == 2

    def test_unrelated_chunks_are_held_not_lost(self):
        inbox, sender = inbox_and_sender()
        for chunk in (make_chunk(2, "y", 0, 3), make_chunk(1, "x", 0, 3)):
            sender.send(inbox.port.address, chunk.encode(), KIND_DATA)
        got = inbox.collect(1, "x", PHASE_REQUEST, 1, timeout=5)
        assert got[0].param == "x"
        # The held chunk for request 2 is still retrievable.
        got2 = inbox.collect(2, "y", PHASE_REQUEST, 1, timeout=5)
        assert got2[0].param == "y"

    def test_timeout_when_chunks_missing(self):
        inbox, _sender = inbox_and_sender()
        with pytest.raises(TransportTimeout):
            inbox.collect(1, "x", PHASE_REQUEST, 1, timeout=0.05)

class TestAssembleChunks:
    def test_places_chunks_at_local_offsets(self):
        layout = Layout(((0, 4), (4, 10)))
        out = np.zeros(6)
        chunks = [
            DataChunk(
                1, "x", PHASE_REQUEST, 0, 1, 4, 7,
                np.array([40.0, 50.0, 60.0]).tobytes(),
            ),
            DataChunk(
                1, "x", PHASE_REQUEST, 1, 1, 7, 10,
                np.array([70.0, 80.0, 90.0]).tobytes(),
            ),
        ]
        assemble_chunks(chunks, layout, 1, np.dtype(np.float64), out)
        np.testing.assert_array_equal(out, [40, 50, 60, 70, 80, 90])

    def test_out_of_block_chunk_rejected(self):
        layout = Layout(((0, 4), (4, 10)))
        chunk = DataChunk(
            1, "x", PHASE_REQUEST, 0, 1, 2, 5,
            np.zeros(3).tobytes(),
        )
        with pytest.raises(MarshalError, match="outside"):
            assemble_chunks(
                [chunk], layout, 1, np.dtype(np.float64), np.zeros(6)
            )

    def test_size_mismatch_rejected(self):
        layout = Layout(((0, 4),))
        chunk = DataChunk(
            1, "x", PHASE_REQUEST, 0, 0, 0, 4, b"\0" * 10
        )
        with pytest.raises(MarshalError, match="bytes"):
            assemble_chunks(
                [chunk], layout, 0, np.dtype(np.float64), np.zeros(4)
            )

    @staticmethod
    def _chunk(lo, hi):
        return DataChunk(
            1, "x", PHASE_REQUEST, 0, 1, lo, hi,
            np.arange(lo, hi, dtype=np.float64).tobytes(),
        )

    @pytest.mark.parametrize(
        "ranges, what",
        [
            ([(4, 7)], r"gap at \[7, 10\)"),
            ([(7, 10)], r"gap at \[4, 7\)"),
            ([(4, 6), (8, 10)], r"gap at \[6, 8\)"),
            ([(4, 8), (6, 10)], r"overlap at \[6, 8\)"),
            ([(4, 10), (4, 10)], r"overlap at \[4, 10\)"),
            ([], r"gap at \[4, 10\)"),
        ],
    )
    def test_a_chunk_set_that_does_not_tile_the_block_is_rejected(
        self, ranges, what
    ):
        """The destination is uninitialised memory: a hole must be an
        error, never a block with bytes no chunk wrote."""
        layout = Layout(((0, 4), (4, 10)))
        out = np.full(6, -1.0)
        with pytest.raises(MarshalError, match=what):
            assemble_chunks(
                [self._chunk(lo, hi) for lo, hi in ranges],
                layout, 1, np.dtype(np.float64), out,
            )
        np.testing.assert_array_equal(out, np.full(6, -1.0))

    def test_empty_chunks_and_an_empty_block_are_fine(self):
        layout = Layout(((0, 4), (4, 4), (4, 10)))
        assemble_chunks([], layout, 1, np.dtype(np.float64), np.empty(0))
        out = np.empty(6)
        assemble_chunks(
            [self._chunk(4, 4), self._chunk(4, 10), self._chunk(10, 10)],
            layout, 2, np.dtype(np.float64), out,
        )
        np.testing.assert_array_equal(out, np.arange(4.0, 10.0))


@st.composite
def _chunk_sets(draw):
    """A destination rank of a random layout pair, and the scheduled
    chunks for it — as scheduled, or with some dropped, duplicated or
    shifted."""
    length = draw(st.integers(0, 60))

    def layout(nranks):
        cuts = sorted(
            draw(st.lists(st.integers(0, length), min_size=nranks - 1,
                          max_size=nranks - 1))
        )
        return Layout(tuple(zip([0, *cuts], [*cuts, length])))

    src = layout(draw(st.integers(1, 4)))
    dst = layout(draw(st.integers(1, 4)))
    rank = draw(st.integers(0, dst.nranks - 1))
    ranges = [
        (s.global_lo, s.global_hi)
        for s in transfer_schedule(src, dst)
        if s.dst_rank == rank
    ]
    mutated = []
    for lo, hi in ranges:
        action = draw(st.sampled_from(["keep"] * 6 + ["drop", "dup", "shift"]))
        if action == "drop":
            continue
        if action == "shift":
            by = draw(st.integers(-2, 2))
            lo, hi = max(lo + by, 0), max(hi + by, 0)
        mutated.extend([(lo, hi)] * (2 if action == "dup" else 1))
    return dst, rank, draw(st.permutations(mutated))


class TestAssembleChunksNeverLeavesAHole:
    @given(_chunk_sets())
    @settings(max_examples=300, deadline=None)
    def test_every_element_lands_or_marshal_error(self, case):
        layout, rank, ranges = case
        lo, hi = layout.local_range(rank)
        source = np.arange(layout.length + 4, dtype=np.float64) + 1.0
        chunks = [
            DataChunk(
                1, "x", PHASE_REQUEST, 0, rank, c_lo, c_hi,
                source[c_lo:c_hi].tobytes(),
            )
            for c_lo, c_hi in ranges
        ]
        out = np.full(hi - lo, np.nan)  # stands for uninitialised
        try:
            assemble_chunks(chunks, layout, rank, np.dtype(np.float64), out)
        except MarshalError:
            return
        np.testing.assert_array_equal(out, source[lo:hi])


class TestInboxLifecycle:
    """Eviction, retirement and expiry: abandoned requests must not
    leak."""

    def test_timeout_evicts_partial_entry(self):
        inbox, sender = inbox_and_sender()
        # One of two expected chunks arrives; the collect times out.
        sender.send(
            inbox.port.address, make_chunk(1, "x", 0, 4).encode(), KIND_DATA
        )
        with pytest.raises(TransportTimeout):
            inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=0.1)
        assert inbox.pending_entries() == 0

    def test_discard_evicts_and_drops_late_chunks(self):
        inbox, sender = inbox_and_sender()
        sender.send(
            inbox.port.address, make_chunk(7, "x", 0, 4).encode(), KIND_DATA
        )
        # Filed on arrival, with nobody waiting for it.
        assert inbox.pending_entries() == 1
        inbox.discard(7)
        assert inbox.pending_entries() == 0
        # A late chunk for the retired request is dropped on arrival,
        # not held forever.
        sender.send(
            inbox.port.address, make_chunk(7, "x", 4, 8).encode(), KIND_DATA
        )
        assert inbox.pending_entries() == 0
        assert inbox.stats()["late_dropped"] == 1

    def test_concurrent_collects_for_different_requests(self):
        inbox, sender = inbox_and_sender()
        results = {}

        def collect(rid):
            results[rid] = inbox.collect(
                rid, "x", PHASE_REQUEST, 2, timeout=10
            )

        threads = [
            threading.Thread(target=collect, args=(rid,))
            for rid in (1, 2)
        ]
        for t in threads:
            t.start()
        # Interleave the two requests' chunks adversarially.
        for rid, lo, hi in [(2, 4, 8), (1, 0, 4), (2, 0, 4), (1, 4, 8)]:
            sender.send(
                inbox.port.address,
                make_chunk(rid, "x", lo, hi).encode(),
                KIND_DATA,
            )
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        for rid in (1, 2):
            assert len(results[rid]) == 2
            assert all(c.request_id == rid for c in results[rid])
        assert inbox.pending_entries() == 0

    def test_a_done_request_s_entries_expire_at_the_next_filing(self):
        inbox, sender = inbox_and_sender(timeout=0.05)
        for rid in (1, 2):
            sender.send(
                inbox.port.address, make_chunk(rid, "x", 0, 4).encode(),
                KIND_DATA,
            )
        inbox.done(1)
        # Chunks landing after their request is done age as well.
        inbox.done(4)
        sender.send(
            inbox.port.address, make_chunk(4, "x", 0, 4).encode(), KIND_DATA
        )
        time.sleep(0.1)
        # Nothing is swept until a frame is filed; then every done
        # entry older than the timeout goes, and request 2 — not done,
        # however old — stays with the fresh one.
        assert inbox.pending_entries() == 3
        sender.send(
            inbox.port.address, make_chunk(3, "x", 0, 4).encode(), KIND_DATA
        )
        assert inbox.pending_entries() == 2
        assert inbox.stats()["expired"] == 2
        assert len(inbox.collect(2, "x", PHASE_REQUEST, 1, timeout=1)) == 1
        assert len(inbox.collect(3, "x", PHASE_REQUEST, 1, timeout=1)) == 1

    def test_without_a_timeout_nothing_expires(self):
        inbox, sender = inbox_and_sender(timeout=None)
        sender.send(
            inbox.port.address, make_chunk(1, "x", 0, 4).encode(), KIND_DATA
        )
        inbox.done(1)
        time.sleep(0.05)
        sender.send(
            inbox.port.address, make_chunk(2, "x", 0, 4).encode(), KIND_DATA
        )
        assert inbox.pending_entries() == 2
        assert inbox.stats()["expired"] == 0

    def test_a_retry_s_collect_takes_its_id_back_from_aging(self):
        """A retry without a reply cache re-sends its chunks under the
        id of a request already done; the entry it collects is kept
        however long the chunks take."""
        inbox, sender = inbox_and_sender(timeout=0.05)
        inbox.done(5)
        sender.send(
            inbox.port.address, make_chunk(5, "x", 0, 4).encode(), KIND_DATA
        )
        collected = []
        waiter = threading.Thread(
            target=lambda: collected.append(
                inbox.collect(5, "x", PHASE_REQUEST, 2, timeout=10)
            )
        )
        waiter.start()
        time.sleep(0.2)
        for rid, lo, hi in [(9, 0, 4), (5, 4, 8)]:
            sender.send(
                inbox.port.address,
                make_chunk(rid, "x", lo, hi).encode(),
                KIND_DATA,
            )
        waiter.join(timeout=10)
        assert len(collected[0]) == 2
        assert inbox.stats()["expired"] == 0

    def test_done_does_not_revive_a_discarded_id(self):
        inbox, sender = inbox_and_sender(timeout=0.05)
        inbox.discard(6)
        inbox.done(6)
        sender.send(
            inbox.port.address, make_chunk(6, "x", 0, 4).encode(), KIND_DATA
        )
        assert inbox.pending_entries() == 0
        assert inbox.stats()["late_dropped"] == 1

    def test_closing_the_port_wakes_every_waiter(self):
        inbox, _sender = inbox_and_sender()
        raised = {}

        def wait(name, call):
            try:
                call()
            except Exception as exc:  # noqa: BLE001 - recorded
                raised[name] = exc

        threads = [
            threading.Thread(
                target=wait, args=("reply", lambda: inbox.reply(1, 30))
            ),
            threading.Thread(
                target=wait,
                args=(
                    "collect",
                    lambda: inbox.collect(1, "x", PHASE_REQUEST, 1, 30),
                ),
            ),
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        inbox.port.close()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert sorted(raised) == ["collect", "reply"]
        for exc in raised.values():
            assert type(exc) is TransportError
            assert "closed" in str(exc)


class TestInboxReplies:
    @staticmethod
    def make_reply(rid):
        return ReplyMessage(rid).encode()

    def test_out_of_order_replies_reach_their_waiters(self):
        inbox, sender = inbox_and_sender()
        for rid in (3, 1, 2):  # reverse-ish of the wait order
            sender.send(inbox.port.address, self.make_reply(rid), KIND_REPLY)
        for rid in (1, 2, 3):
            assert inbox.reply(rid, timeout=5).request_id == rid
        assert inbox.pending_entries() == 0

    def test_a_filed_reply_is_taken_once(self):
        inbox, sender = inbox_and_sender()
        sender.send(inbox.port.address, self.make_reply(9), KIND_REPLY)
        sender.send(inbox.port.address, self.make_reply(5), KIND_REPLY)
        assert inbox.reply(5, timeout=5).request_id == 5
        assert inbox.reply(9, timeout=5).request_id == 9
        with pytest.raises(TransportTimeout):
            inbox.reply(9, timeout=0.05)

    def test_discarded_request_reply_is_dropped(self):
        inbox, sender = inbox_and_sender()
        inbox.discard(4)
        sender.send(inbox.port.address, self.make_reply(4), KIND_REPLY)
        sender.send(inbox.port.address, self.make_reply(6), KIND_REPLY)
        assert inbox.reply(6, timeout=5).request_id == 6
        # The retired reply was dropped on arrival, not filed.
        assert inbox.pending_entries() == 0
        assert inbox.stats()["late_dropped"] == 1
        with pytest.raises(TransportError):
            inbox.reply(4, timeout=0.1)

    def test_discard_evicts_a_filed_reply_and_its_chunks(self):
        inbox, sender = inbox_and_sender()
        sender.send(inbox.port.address, self.make_reply(4), KIND_REPLY)
        sender.send(
            inbox.port.address, make_chunk(4, "x", 0, 4).encode(), KIND_DATA
        )
        assert inbox.pending_entries() == 2
        inbox.discard(4)
        assert inbox.pending_entries() == 0


class TestInboxUnderContention:
    def test_many_senders_and_waiters_lose_nothing(self):
        """Eight senders file onto one inbox while eight waiters take
        replies and chunks off it, switching threads as often as the
        interpreter allows: every waiter gets exactly its own frames,
        and nothing is left behind."""
        inbox, _sender = inbox_and_sender()
        fabric = inbox.port._fabric
        nthreads, per_thread = 8, 25
        results, errors = {}, []

        def send(t):
            port = fabric.open_port()
            for i in range(per_thread):
                rid = t * per_thread + i
                for lo in (0, 4):
                    port.send(
                        inbox.port.address,
                        make_chunk(rid, "x", lo, lo + 4).encode(),
                        KIND_DATA,
                    )
                port.send(
                    inbox.port.address, ReplyMessage(rid).encode(), KIND_REPLY
                )

        def wait(t):
            try:
                for i in range(per_thread):
                    rid = t * per_thread + i
                    chunks = inbox.collect(rid, "x", PHASE_REQUEST, 2, 10)
                    reply = inbox.reply(rid, timeout=10)
                    results[rid] = (
                        sorted(c.global_lo for c in chunks), reply.request_id
                    )
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fn, args=(t,))
                for t in range(nthreads)
                for fn in (wait, send)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == {
            rid: ([0, 4], rid) for rid in range(nthreads * per_thread)
        }
        assert inbox.pending_entries() == 0
        assert inbox.stats()["duplicates_dropped"] == 0
