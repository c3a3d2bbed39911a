"""Concurrency integration tests: several clients, several objects,
interleaved transfers, shutdown behaviour."""

import threading

import numpy as np
import pytest



def serve(orb, servant_class, name="example", nthreads=4, **kw):
    return orb.serve(name, lambda ctx: servant_class(), nthreads, **kw)


class TestMultipleClients:
    def test_two_spmd_clients_share_one_server(self, orb, idl, servant_class):
        """The multi-port design separates header from data precisely
        so concurrent clients cannot interleave corruptly (§3.3)."""
        serve(orb, servant_class, nthreads=3)
        results = {}

        def run_client(tag, nthreads, rounds):
            def client(c):
                diff = idl.diff_object._spmd_bind("example", c.runtime)
                seq = idl.darray.from_global(
                    np.full(60, float(tag)), comm=c.comm
                )
                for _ in range(rounds):
                    diff.diffusion(1, seq)
                return seq.allgather()

            results[tag] = orb.run_spmd_client(nthreads, client)

        threads = [
            threading.Thread(target=run_client, args=(1, 2, 5)),
            threading.Thread(target=run_client, args=(2, 4, 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        np.testing.assert_array_equal(
            results[1][0], np.full(60, 6.0)
        )
        np.testing.assert_array_equal(
            results[2][0], np.full(60, 5.0)
        )

    def test_mixed_transfer_methods_concurrently(
        self, orb, idl, servant_class
    ):
        serve(orb, servant_class, nthreads=2)
        results = {}

        def run_client(tag, transfer):
            def client(c):
                diff = idl.diff_object._spmd_bind(
                    "example", c.runtime, transfer=transfer
                )
                seq = idl.darray.from_global(
                    np.zeros(30), comm=c.comm
                )
                for _ in range(4):
                    diff.diffusion(tag, seq)
                return seq.allgather()

            results[tag] = orb.run_spmd_client(2, client)

        threads = [
            threading.Thread(target=run_client, args=(1, "centralized")),
            threading.Thread(target=run_client, args=(10, "multiport")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        np.testing.assert_array_equal(results[1][0], np.full(30, 4.0))
        np.testing.assert_array_equal(results[10][0], np.full(30, 40.0))

    def test_many_serial_clients(self, orb, idl, servant_class):
        serve(orb, servant_class, nthreads=2)

        def client(c):
            diff = idl.diff_object._bind("example", c.runtime)
            seq = idl.darray.adopt(np.full(8, float(c.rank)))
            diff.diffusion(c.rank, seq)
            return seq.local_data()[0]

        results = orb.run_spmd_client(6, client)
        assert results == [float(2 * r) for r in range(6)]


class TestMultipleObjects:
    def test_two_objects_on_one_orb(self, orb, idl, servant_class):
        serve(orb, servant_class, name="alpha", nthreads=2)
        serve(orb, servant_class, name="beta", nthreads=3)

        def client(c):
            a = idl.diff_object._spmd_bind("alpha", c.runtime)
            b = idl.diff_object._spmd_bind("beta", c.runtime)
            seq = idl.darray.from_global(np.zeros(18), comm=c.comm)
            a.diffusion(1, seq)
            b.diffusion(10, seq)
            return seq.allgather()

        for result in orb.run_spmd_client(2, client):
            np.testing.assert_array_equal(result, np.full(18, 11.0))

    def test_parallel_client_to_multiple_objects_via_bind(
        self, orb, idl, servant_class
    ):
        """§2.1: '_bind … can be useful to parallel clients which want
        to interact in parallel with multiple distributed objects.'"""
        for i in range(3):
            serve(orb, servant_class, name=f"worker{i}", nthreads=1)

        def client(c):
            proxy = idl.diff_object._bind(f"worker{c.rank}", c.runtime)
            seq = idl.darray.adopt(np.zeros(4))
            proxy.diffusion(c.rank + 1, seq)
            return seq.local_data()[0]

        assert orb.run_spmd_client(3, client) == [1.0, 2.0, 3.0]


class TestPersistentClientGroup:
    def test_client_group_reuse(self, orb, idl, servant_class):
        serve(orb, servant_class, nthreads=2)
        def session(c, step):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            seq = idl.darray.from_global(np.zeros(10), comm=c.comm)
            diff.diffusion(step, seq)
            return seq.allgather()[0]

        assert orb.run_spmd_client(2, session, 3) == [3.0, 3.0]
        assert orb.run_spmd_client(2, session, 4) == [4.0, 4.0]


class TestLifecycle:
    def test_shutdown_unbinds_names(self, orb, idl, servant_class):
        group = serve(orb, servant_class, nthreads=2)
        group.shutdown()
        assert ("example", "") not in orb.naming.names()

    def test_shutdown_is_idempotent(self, orb, idl, servant_class):
        group = serve(orb, servant_class, nthreads=2)
        group.shutdown()
        group.shutdown()

    def test_orb_context_manager(self, idl, servant_class):
        from repro import ORB

        with ORB(timeout=20.0) as orb:
            serve(orb, servant_class, nthreads=2)

            def client(c):
                diff = idl.diff_object._spmd_bind("example", c.runtime)
                return diff.scaled(3, 3)

            assert orb.run_spmd_client(1, client) == [(9, 4)]
        # After shutdown all ports are gone.
        assert orb.fabric.open_port_count() == 0

    def test_invocations_counted_per_server_thread(
        self, orb, idl, servant_class
    ):
        """Every computing thread of the SPMD object receives every
        request — the defining property of SPMD objects (§2)."""
        servants = []

        def factory(ctx):
            servant = servant_class()
            servants.append(servant)
            return servant

        orb.serve("example", factory, 4)

        def client(c):
            diff = idl.diff_object._spmd_bind("example", c.runtime)
            seq = idl.darray.from_global(np.zeros(8), comm=c.comm)
            diff.diffusion(1, seq)
            diff.diffusion(1, seq)
            return True

        orb.run_spmd_client(2, client)
        assert [s._invocations for s in servants] == [2, 2, 2, 2]
