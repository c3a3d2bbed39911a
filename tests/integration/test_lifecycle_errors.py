"""Lifecycle edge cases: stale references, shutdown during use."""

import pytest

from repro.orb.transport import TransportError


class TestStaleReferences:
    def test_invoking_a_shut_down_object_fails_cleanly(
        self, orb, idl, servant_class
    ):
        group = orb.serve("gone", lambda ctx: servant_class(), 2)

        def client(c):
            proxy = idl.diff_object._spmd_bind("gone", c.runtime)
            assert proxy.scaled(2, 1) == (2, 2)
            return proxy

        # Bind + one invocation while alive.
        orb.run_spmd_client(1, client)
        group.shutdown()

        def stale_client(c):
            from repro.orb.proxy import ClientProxy

            # Re-create a proxy from the stale reference directly.
            from repro.orb.proxy import BindMode

            proxy = idl.diff_object(
                c.runtime, group.reference, BindMode.SERIAL, "centralized"
            )
            with pytest.raises(TransportError, match="no port"):
                proxy.scaled(1, 1)
            return True

        assert all(orb.run_spmd_client(1, stale_client))

    def test_name_is_gone_after_shutdown(self, orb, idl, servant_class):
        group = orb.serve("gone2", lambda ctx: servant_class(), 1)
        group.shutdown()

        def client(c):
            from repro.orb.naming import NamingError

            with pytest.raises(NamingError):
                idl.diff_object._bind("gone2", c.runtime)
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_rebind_after_shutdown_serves_again(self, orb, idl, servant_class):
        group = orb.serve("phoenix", lambda ctx: servant_class(), 2)
        group.shutdown()
        orb.serve("phoenix", lambda ctx: servant_class(), 3)

        def client(c):
            proxy = idl.diff_object._spmd_bind("phoenix", c.runtime)
            return proxy.scaled(3, 3)

        assert orb.run_spmd_client(2, client) == [(9, 4)] * 2

    def test_closed_runtime_rejects_new_invocations(
        self, orb, idl, servant_class
    ):
        orb.serve("alive", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime()
        proxy = idl.diff_object._bind("alive", runtime)
        assert proxy.scaled(1, 1) == (1, 2)
        runtime.close()
        with pytest.raises(Exception):
            proxy.scaled(1, 1)


class TestFailedActivation:
    @pytest.mark.parametrize("nthreads", [1, 3])
    def test_a_duplicate_name_leaks_no_threads_or_ports(
        self, orb, idl, servant_class, nthreads
    ):
        """``naming.bind`` is the last step of activation; when it
        refuses, the ranks and ports opened before it are torn down —
        nobody holds the group, so nobody else could."""
        import threading

        from repro.orb.naming import NamingError

        orb.serve("taken", lambda ctx: servant_class(), 1)
        threads = threading.active_count()
        ports = orb.fabric.open_port_count()
        with pytest.raises(NamingError, match="already bound as 'taken'"):
            orb.serve("taken", lambda ctx: servant_class(), nthreads)
        assert threading.active_count() == threads
        assert orb.fabric.open_port_count() == ports
        # The object that owns the name is untouched by the failure.
        runtime = orb.client_runtime()
        try:
            proxy = idl.diff_object._bind("taken", runtime)
            assert proxy.scaled(2, 1) == (2, 2)
        finally:
            runtime.close()


class TestShutdownAfterADeadGroup:
    def test_every_group_and_runtime_is_shut_down_and_the_error_surfaces(
        self, idl, servant_class
    ):
        """A group whose ranks died makes ``shutdown`` raise — after
        the other groups and the client runtimes were shut down too,
        not instead of it."""
        import threading

        from repro import ORB
        from repro.rts.executor import SpmdError

        class Dying(servant_class):
            def scaled(self, factor, counter):
                raise SystemExit("rank died inside an operation")

        orb = ORB(timeout=1.0)
        threads = threading.active_count()
        ports = orb.fabric.open_port_count()
        orb.serve("bad", lambda ctx: Dying(), 2)
        orb.serve("good", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime()
        with pytest.raises(Exception):
            idl.diff_object._bind("bad", runtime).scaled(1, 1)
        assert idl.diff_object._bind("good", runtime).scaled(2, 1) == (2, 2)
        with pytest.raises(SpmdError, match="rank died inside"):
            orb.shutdown()
        assert threading.active_count() == threads
        assert orb.fabric.open_port_count() == ports
