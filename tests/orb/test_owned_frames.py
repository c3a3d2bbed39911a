"""A large frame lands where it will live (ISSUE 21).

Over sockets every frame is read into a buffer allocated for it
alone, every nested octet run on the wire is
8-aligned, and the decoders pass the buffer's writability down — so the
serial ends of the through-root path, and a rank of the direct path
whose block arrived as one chunk, *adopt* the decoded array instead of
copying it.  What must hold for that to be safe is pinned here, end to
end: an adopted block is aligned and writable, aliases nothing any
other party can reach, and every other arrival still takes the copy
path with every byte written.
"""

import contextlib

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.cdr.accounting import copy_audit
from repro.cdr.typecodes import DSequenceTC, TC_DOUBLE
from repro.orb.naming import NamingService
from repro.orb.operation import (
    Direction,
    OperationPlan,
    OperationSpec,
    ParamSpec,
)
from repro.orb.request import (
    DataChunk,
    PHASE_REQUEST,
    RequestMessage,
    decode_chunk,
    decode_request,
)
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_DATA, KIND_REQUEST, SocketPortAddress

BULK = 1 << 20  # doubles: the benchmark's 8 MiB

IDL = f"""
typedef dsequence<double, {2 * BULK}> payload;

interface owned {{
    payload roundtrip(in payload data);
    double scribble(in payload data);
    void regrow(in long n, inout payload data);
    double ingest(in payload data);
}};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="owned_frames_idl")


@contextlib.contextmanager
def two_socket_orbs():
    naming = NamingService()
    with contextlib.ExitStack() as stack:
        orbs = [
            stack.enter_context(
                ORB(
                    name,
                    naming=naming,
                    fabric=stack.enter_context(SocketFabric(name)),
                    timeout=30.0,
                )
            )
            for name in ("owned-server", "owned-client")
        ]
        yield orbs


def _servant(idl, seen):
    class Owned(idl.owned_skel):
        def roundtrip(self, data):
            seen.append(data.local_data())
            return data

        def scribble(self, data):
            block = data.local_data()
            seen.append(block)
            total = float(block.sum())
            block[:] = -1.0  # its own to overwrite
            return total

        def regrow(self, n, data):
            seen.append(data.local_data())
            data.set_length(n)
            data.local_data()[:] = 7.0

        def ingest(self, data):
            seen.append((self.rank, data.local_data()))
            return float(data.local_data().sum())

    return lambda ctx: Owned()


class TestSerialEndsAdopt:
    def test_bulk_roundtrip_is_adopted_on_both_sides(self, idl):
        seen = []
        source = np.arange(BULK, dtype=np.float64)
        with two_socket_orbs() as (server, client):
            server.serve("owned", _servant(idl, seen), nthreads=1)
            runtime = client.client_runtime()
            proxy = idl.owned._bind("owned", runtime)
            data = idl.payload.from_global(source)
            proxy.roundtrip(data)  # connections and caches warm
            del seen[:]
            with copy_audit() as account:
                replies = [proxy.roundtrip(data) for _ in range(2)]
            runtime.close()
        blocks = [reply.local_data() for reply in replies]
        for block in [*seen, *blocks]:
            assert block.flags.aligned and block.flags.writeable
            assert block.dtype == np.float64
            np.testing.assert_array_equal(block, source)
        # One write per received byte: the socket read is the landing
        # store, in both directions.
        copied_bytes, _events = account.snapshot()
        assert copied_bytes / (2 * 2 * source.nbytes) == pytest.approx(
            1.0, abs=0.01
        )
        # Nobody shares: not two arguments, not two replies, not a
        # reply with the caller's own array.
        held = [*seen, *blocks, data.local_data(), source]
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                assert not np.shares_memory(a, b)
        blocks[0][:] = 0.0
        np.testing.assert_array_equal(blocks[1], source)
        np.testing.assert_array_equal(data.local_data(), source)

    def test_servant_scribbling_on_its_argument_disturbs_nothing(self, idl):
        seen = []
        source = np.arange(BULK, dtype=np.float64)
        with two_socket_orbs() as (server, client):
            server.serve("owned", _servant(idl, seen), nthreads=1)
            runtime = client.client_runtime()
            proxy = idl.owned._bind("owned", runtime)
            data = idl.payload.from_global(source)
            totals = [proxy.scribble(data) for _ in range(3)]
            echoed = proxy.roundtrip(data).local_data()
            runtime.close()
        assert totals == [float(source.sum())] * 3
        np.testing.assert_array_equal(data.local_data(), source)
        np.testing.assert_array_equal(echoed, source)
        for block in seen[:3]:
            assert block.flags.writeable and (block == -1.0).all()

    @pytest.mark.parametrize("n", [BULK // 2, BULK + 4096])
    def test_inout_sequence_the_servant_resizes(self, idl, n):
        seen = []
        with two_socket_orbs() as (server, client):
            server.serve("owned", _servant(idl, seen), nthreads=1)
            runtime = client.client_runtime()
            proxy = idl.owned._bind("owned", runtime)
            data = idl.payload.from_global(np.arange(BULK, dtype=np.float64))
            before = data.local_data()
            proxy.regrow(n, data)
            runtime.close()
        after = data.local_data()
        assert data.length() == n == len(after)
        assert after.flags.aligned and after.flags.writeable
        assert (after == 7.0).all()
        # The caller's old block is untouched and unshared.
        np.testing.assert_array_equal(before, np.arange(BULK))
        assert not np.shares_memory(before, after)
        assert not np.shares_memory(seen[0], after)

    def test_a_small_frame_adopts_and_the_in_process_fabric_copies(
        self, idl
    ):
        """Both sides of the choice in one place: a 4 KiB argument
        crosses sockets like an 8 MiB one — the socket read is the
        landing store and both ends adopt — while with no socket in
        between the same call lands by copy; a private, writable block
        all the same."""
        small = np.arange(512, dtype=np.float64)
        big = np.arange(1 << 15, dtype=np.float64)
        seen = []
        with two_socket_orbs() as (server, client):
            server.serve("owned", _servant(idl, seen), nthreads=1)
            runtime = client.client_runtime()
            proxy = idl.owned._bind("owned", runtime)
            proxy.roundtrip(idl.payload.from_global(small))
            del seen[:]
            with copy_audit() as owned:
                reply = proxy.roundtrip(idl.payload.from_global(small))
            runtime.close()
        # One write per received byte and the heads around them: no
        # copy-out on either side.
        assert owned.snapshot()[0] < 3 * small.nbytes
        seen.append(reply.local_data())
        for block in seen:
            assert block.base is not None  # a frame buffer's payload
        with ORB("owned-inproc") as orb:
            orb.serve("owned", _servant(idl, seen), nthreads=1)
            runtime = orb.client_runtime()
            proxy = idl.owned._bind("owned", runtime)
            data = idl.payload.from_global(big)
            with copy_audit() as inproc:
                reply = proxy.roundtrip(data)
            runtime.close()
        assert inproc.snapshot()[0] >= 4 * big.nbytes
        seen.append(reply.local_data())
        for block in seen:
            assert block.flags.writeable and block.flags.aligned
            assert not np.shares_memory(block, small)
            assert not np.shares_memory(block, big)
        np.testing.assert_array_equal(reply.local_data(), big)


class TestDirectPathAdoptsWholeBlocks:
    def _ingest(self, idl, client_ranks, server_ranks, source):
        seen = []
        with two_socket_orbs() as (server, client):
            server.serve("owned", _servant(idl, seen), nthreads=server_ranks)

            def body(ctx):
                proxy = idl.owned._spmd_bind(
                    "owned", ctx.runtime, transfer="multiport"
                )
                data = idl.payload.from_global(source, comm=ctx.comm)
                with copy_audit() as account:
                    result = proxy.ingest(data)
                return result, account.snapshot()[0], data.local_data()

            results = client.run_spmd_client(client_ranks, body)
        blocks = dict(seen)
        assert sorted(blocks) == list(range(server_ranks))
        landed = np.concatenate([blocks[r] for r in range(server_ranks)])
        np.testing.assert_array_equal(landed, source)
        assert {r[0] for r in results} == {float(blocks[0].sum())}
        return blocks, results

    def test_two_to_four_adopts_each_rank_s_single_chunk(self, idl):
        source = np.arange(BULK, dtype=np.float64)
        blocks, results = self._ingest(idl, 2, 4, source)
        held = [*blocks.values(), *(r[2] for r in results), source]
        for block in blocks.values():
            assert block.flags.aligned and block.flags.writeable
            # Adopted: the block *is* a frame buffer's payload.
            assert block.base is not None
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_three_to_four_assembles_from_two_chunks_by_copy(self, idl):
        """Ranks 1 and 2 of four receive their block in two chunks
        from three senders: assembled into memory of their own, every
        element written."""
        source = np.arange(3 << 18, dtype=np.float64)
        blocks, _results = self._ingest(idl, 3, 4, source)
        for rank, block in blocks.items():
            assert block.flags.aligned and block.flags.writeable
            assert (block.base is None) == (rank in (1, 2))
        held = list(blocks.values())
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                assert not np.shares_memory(a, b)


class TestAlignmentOnTheWire:
    """Every nested octet run starts 8-aligned in its stream, so with
    the frame landed at an aligned base the decoded element run is
    aligned in memory — whatever the lengths of the strings in front
    of it."""

    BODY = OperationPlan(OperationSpec(
        name="op",
        params=(ParamSpec("data", Direction.IN, DSequenceTC(TC_DOUBLE)),),
    )).request[False]

    @pytest.fixture(scope="class")
    def fabrics(self):
        with SocketFabric("align-a") as a, SocketFabric("align-b") as b:
            yield a, b

    @pytest.mark.parametrize("n", range(10))
    def test_request_body_is_aligned_for_any_label_lengths(self, fabrics, n):
        near, far = fabrics
        sender = near.open_port("s" * n)
        receiver = far.open_port("r" * n)
        source = np.arange((1 << 16) // 4, dtype=np.float64)
        message = RequestMessage(
            request_id=n,
            object_key="k" * n,
            operation="o" * n,
            reply_port=sender.address,
            client_data_ports=(sender.address,) * (n % 3),
            dist_layouts=(("d" * n, (1, 2, 3)),),
            body=self.BODY.encode([source]),
        )
        sender.send(receiver.address, message.encode_segments(), KIND_REQUEST)
        _src, _kind, payload = receiver.recv(timeout=5)
        request = decode_request(payload)
        assert (request.object_key, request.operation) == ("k" * n, "o" * n)
        (landed,) = self.BODY.decode(request.body)
        assert landed.flags.aligned and landed.flags.writeable
        np.testing.assert_array_equal(landed, source)
        for port in (sender, receiver):
            port.close()

    @pytest.mark.parametrize("residue", range(8))
    @pytest.mark.parametrize(
        "string", ["object_key", "operation", "host", "label", "kind", "param"]
    )
    def test_every_run_starts_eight_aligned_in_the_frame_buffer(
        self, string, residue
    ):
        """One string of a fixed-layout head at a time through every
        length residue mod 8 (the sweeps around this one move them all
        together): the pad behind the strings absorbs it, in the
        envelope and in the message inside it."""
        lengths = dict.fromkeys(
            ("object_key", "operation", "host", "label", "kind", "param"), 3
        )
        lengths[string] += residue
        src = SocketPortAddress(
            "h" * lengths["host"], 40001, 3, "l" * lengths["label"]
        )
        request = RequestMessage(
            1, "k" * lengths["object_key"], "o" * lengths["operation"],
            reply_port=src, body=bytes(range(16)),
        )
        chunk = DataChunk(
            1, "p" * lengths["param"], PHASE_REQUEST, 0, 1, 0, 2,
            bytes(range(16)),
        )
        for message, decode in (
            (request, lambda view: decode_request(view).body),
            (chunk, lambda view: decode_chunk(view).payload),
        ):
            segments = message.encode_segments()
            frame = np.frombuffer(
                b"".join(
                    SocketFabric._encode_frame(
                        src, src, "d" * lengths["kind"], segments,
                        sum(map(len, segments)),
                    )
                ),
                np.uint8,
            )
            _dest, _src, _kind, payload = SocketFabric._decode_frame(
                memoryview(frame)
            )
            run = decode(payload)
            assert bytes(run) == bytes(range(16))
            for view in (payload, run):
                offset = (
                    np.frombuffer(view, np.uint8).ctypes.data
                    - frame.ctypes.data
                )
                assert offset % 8 == 0

    @pytest.mark.parametrize("n", range(10))
    def test_chunk_payload_is_aligned_for_any_label_lengths(self, fabrics, n):
        near, far = fabrics
        sender = near.open_port("s" * n)
        receiver = far.open_port("r" * n)
        source = np.arange((1 << 16) // 4, dtype=np.float64)
        chunk = DataChunk(
            n, "p" * n, PHASE_REQUEST, 0, 1, 3, 3 + len(source),
            memoryview(source).cast("B"),
        )
        sender.send(receiver.address, chunk.encode_segments(), KIND_DATA)
        _src, _kind, payload = receiver.recv(timeout=5)
        got = decode_chunk(payload)
        assert (got.param, got.global_lo) == ("p" * n, 3)
        landed = got.elements(source.dtype)
        assert landed.flags.aligned and landed.flags.writeable
        np.testing.assert_array_equal(landed, source)
        for port in (sender, receiver):
            port.close()


def test_a_held_frame_keeps_its_bytes_while_later_frames_arrive():
    """An owned frame is nobody else's: held while later frames, large
    and small, arrive on the same connection, each keeps its bytes."""
    big = np.arange((1 << 16) // 2, dtype=np.float64)
    with SocketFabric("held-a") as near, SocketFabric("held-b") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        held = []
        for i in range(8):
            sender.send(receiver.address, memoryview(big).cast("B"), KIND_DATA)
            sender.send(receiver.address, bytes([i]) * 1024, KIND_DATA)
            held.append(receiver.recv(timeout=5)[2])
            held.append(receiver.recv(timeout=5)[2])
    for i in range(8):
        large, small = held[2 * i : 2 * i + 2]
        for payload in (large, small):
            assert not payload.readonly
        np.testing.assert_array_equal(np.frombuffer(large, np.float64), big)
        assert bytes(small) == bytes([i]) * 1024
