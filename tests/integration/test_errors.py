"""Error-path integration tests: exceptions crossing the wire,
misuse, and failure injection."""

import numpy as np
import pytest

from repro.orb.operation import RemoteError

TRANSFERS = ["centralized", "multiport"]


def serve(orb, servant_class, nthreads=2, **kw):
    return orb.serve("example", lambda ctx: servant_class(), nthreads, **kw)


@pytest.mark.parametrize("transfer", TRANSFERS)
class TestUserExceptions:
    def test_declared_exception_reaches_client_as_class(
        self, orb, idl, servant_class, transfer
    ):
        serve(orb, servant_class)

        def client(c):
            diff = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            with pytest.raises(idl.bad_step) as excinfo:
                diff.validate(-7)
            return excinfo.value.step, excinfo.value.reason

        results = orb.run_spmd_client(2, client)
        assert results == [(-7, "negative step")] * 2

    def test_ok_after_exception(self, orb, idl, servant_class, transfer):
        """The server loop survives an exception and keeps serving."""
        serve(orb, servant_class)

        def client(c):
            diff = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            with pytest.raises(idl.bad_step):
                diff.validate(-1)
            diff.validate(1)  # fine
            return diff.scaled(2, 2)

        assert orb.run_spmd_client(2, client) == [(4, 3)] * 2


class TestSystemExceptions:
    def test_servant_crash_becomes_remote_error(self, orb, idl, servant_class):
        class Broken(servant_class):
            def checksum(self, data):
                raise ZeroDivisionError("servant bug")

        orb.serve("example", lambda ctx: Broken(), 2)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            seq = idl.darray.from_global(np.ones(4), comm=c.comm)
            with pytest.raises(RemoteError) as excinfo:
                diff.checksum(seq)
            return "servant bug" in str(excinfo.value)

        assert all(orb.run_spmd_client(2, client))

    def test_undeclared_user_exception_is_system_error(
        self, orb, idl, servant_class
    ):
        class Sneaky(servant_class):
            def scaled(self, factor, counter):
                raise idl.bad_step(step=1, reason="undeclared here")

        orb.serve("example", lambda ctx: Sneaky(), 1)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(RemoteError, match="undeclared"):
                diff.scaled(1, 1)
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_unimplemented_operation(self, orb, idl):
        class Partial(idl.diff_object_skel):
            pass  # implements nothing

        orb.serve("example", lambda ctx: Partial(), 1)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(RemoteError) as excinfo:
                diff.scaled(1, 1)
            return excinfo.value.category

        assert orb.run_spmd_client(1, client) == ["NO_IMPLEMENT"]

    def test_wrong_produced_arity(self, orb, idl, servant_class):
        class Wrong(servant_class):
            def scaled(self, factor, counter):
                return 42  # must produce (return, counter)

        orb.serve("example", lambda ctx: Wrong(), 1)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(RemoteError, match="tuple of 2"):
                diff.scaled(1, 1)
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_diverging_spmd_servant_detected(self, orb, idl, servant_class):
        class Diverging(servant_class):
            def checksum(self, data):
                if self.rank == 1:
                    raise RuntimeError("only rank 1 fails")
                return super().checksum(data)

        orb.serve("example", lambda ctx: Diverging(), 3)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            seq = idl.darray.from_global(np.ones(6), comm=c.comm)
            with pytest.raises(RemoteError):
                diff.checksum(seq)
            return True

        assert all(orb.run_spmd_client(2, client))


class TestClientMisuse:
    def test_wrong_argument_count(self, orb, idl, servant_class):
        serve(orb, servant_class)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(TypeError):
                diff._invoke("scaled", (1, 2, 3))
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_plain_value_for_distributed_param(self, orb, idl, servant_class):
        serve(orb, servant_class)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(TypeError, match="DistributedSequence"):
                diff.checksum([1.0, 2.0])
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_wrong_dtype_rejected(self, orb, idl, servant_class):
        serve(orb, servant_class)

        def client(c):
            from repro.cdr.typecodes import MarshalError
            from repro.dist import DistributedSequence

            diff = idl.diff_object._spmd_bind("example", c.runtime)
            seq = DistributedSequence(4, dtype=np.int32)
            with pytest.raises(MarshalError, match="dtype"):
                diff.checksum(seq)
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_unknown_operation_via_invoke(self, orb, idl, servant_class):
        serve(orb, servant_class)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(RemoteError, match="no operation"):
                diff._invoke("nonexistent", ())
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_unknown_transfer_method(self, orb, idl, servant_class):
        serve(orb, servant_class)

        def client(c):
            with pytest.raises(ValueError, match="unknown transfer"):
                idl.diff_object._spmd_bind(
                    "example", c.runtime, transfer="telepathy"
                )
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_unknown_object_name(self, orb, idl, servant_class):
        def client(c):
            from repro.orb.naming import NamingError

            with pytest.raises(NamingError):
                idl.diff_object._bind("ghost", c.runtime)
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_operation_on_wire_unknown_to_server(self, orb, idl):
        """A stale proxy invoking an operation the server's skeleton
        does not know yields BAD_OPERATION, not a hang."""
        from repro import compile_idl

        v2 = compile_idl(
            """
            typedef dsequence<double> darray;
            interface diff_object {
                void diffusion(in long t, inout darray d);
                void brand_new_op();
            };
            """
        )

        class V1(idl.diff_object_skel):
            def diffusion(self, t, d):
                pass

        orb.serve("example", lambda ctx: V1(), 1)

        def client(c):
            proxy = v2.diff_object._bind("example", c.runtime)
            with pytest.raises(RemoteError) as excinfo:
                proxy.brand_new_op()
            return excinfo.value.category

        assert orb.run_spmd_client(1, client) == ["BAD_OPERATION"]


@pytest.mark.parametrize("transfer", TRANSFERS)
class TestMalformedRequestBody:
    def test_bad_body_is_every_ranks_error_exit(
        self, orb, idl, servant_class, transfer
    ):
        """A request whose body does not decode gets a MARSHAL reply
        and costs the group nothing: rank 0 broadcasts the decode
        outcome, so the peers take the error exit with it instead of
        consuming the next request's broadcast as this one's
        arguments."""
        from repro.orb.request import RequestMessage, decode_reply
        from repro.orb.transfer import decode_system_exception
        from repro.orb.transport import KIND_REPLY, KIND_REQUEST

        seen = []

        class Logging(servant_class):
            def diffusion(self, timestep, data):
                seen.append((self.rank, "diffusion", timestep))
                super().diffusion(timestep, data)

            def scaled(self, factor, counter):
                seen.append((self.rank, "scaled", factor))
                return super().scaled(factor, counter)

        group = orb.serve("example", lambda ctx: Logging(), 2)
        port = orb.fabric.open_port("raw-client")
        try:
            port.send(
                group.reference.request_port,
                RequestMessage(
                    request_id=(7 << 32) | 1,
                    object_key="example",
                    operation="scaled",
                    mode=transfer,
                    reply_port=port.address,
                    body=b"\x01",
                ).encode_segments(),
                KIND_REQUEST,
            )
            _src, _kind, payload = port.recv(kind=KIND_REPLY, timeout=10.0)
        finally:
            port.close()
        error = decode_system_exception(bytes(decode_reply(payload).body))
        assert error.category == "MARSHAL"

        def client(c):
            diff = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            seq = idl.darray.from_global(np.zeros(10), comm=c.comm)
            diff.diffusion(3, seq)
            return seq.allgather()

        for result in orb.run_spmd_client(2, client, timeout=30.0):
            np.testing.assert_array_equal(result, np.full(10, 3.0))
        assert sorted(seen) == [(0, "diffusion", 3), (1, "diffusion", 3)]
