"""Tests for ABC++-style futures."""

import threading

import pytest

from repro.rts import Future, FutureError


class TestFuture:
    def test_set_then_get(self):
        f = Future("x")
        f.set_result(42)
        assert f.ready()
        assert f.value() == 42
        assert f.touch() == 42
        assert f.result() == 42

    def test_blocks_until_set(self):
        f = Future()

        def producer():
            f.set_result("late value")

        t = threading.Timer(0.02, producer)
        t.start()
        assert f.value(timeout=5) == "late value"

    def test_timeout(self):
        f = Future("slow")
        with pytest.raises(FutureError):
            f.value(timeout=0.01)

    def test_exception_propagates(self):
        f = Future()
        f.set_exception(ValueError("remote failure"))
        assert f.ready()
        with pytest.raises(ValueError, match="remote failure"):
            f.value()

    def test_double_resolve_rejected(self):
        f = Future()
        f.set_result(1)
        with pytest.raises(FutureError):
            f.set_result(2)
        with pytest.raises(FutureError):
            f.set_exception(RuntimeError())

    def test_done_callback_after_resolve(self):
        f = Future()
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.value()))
        f.set_result(7)
        assert seen == [7]

    def test_done_callback_if_already_resolved(self):
        f = Future()
        f.set_result(9)
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.value()))
        assert seen == [9]

    def test_a_raising_callback_is_reported_and_the_rest_still_run(
        self, capsys
    ):
        f = Future("loud")
        seen = []
        f.add_done_callback(lambda fut: 1 / 0)
        f.add_done_callback(lambda fut: seen.append(fut.value()))
        f.set_result(3)  # does not raise
        assert seen == [3]
        # Already resolved: the same guard on the registering thread.
        f.add_done_callback(lambda fut: {}["missing"])
        f.add_done_callback(lambda fut: seen.append(fut.value() + 1))
        assert seen == [3, 4]
        err = capsys.readouterr().err
        assert err.count("Traceback") == 2
        assert "ZeroDivisionError" in err and "KeyError" in err

    def test_a_callback_base_exception_still_propagates(self):
        def leave(_fut):
            raise SystemExit(3)

        f = Future()
        f.add_done_callback(leave)
        with pytest.raises(SystemExit):
            f.set_result(1)
        assert f.value() == 1

    def test_then_chains_value(self):
        f = Future()
        g = f.then(lambda v: v * 2)
        f.set_result(21)
        assert g.value(timeout=1) == 42

    def test_then_propagates_exception(self):
        f = Future()
        g = f.then(lambda v: v * 2)
        f.set_exception(KeyError("nope"))
        with pytest.raises(KeyError):
            g.value(timeout=1)

    def test_repr_shows_state(self):
        f = Future("named")
        assert "pending" in repr(f)
        f.set_result(None)
        assert "ready" in repr(f)


class TestDemandHook:
    """The `_pre_wait` hook lets a lazy producer (the pipelined
    invocation worker) learn that a reader is about to block, and for
    how long: ``(future, timeout)``, ``None`` for good, ``0`` for a
    poll."""

    def test_wait_announces_demand(self):
        future = Future(label="lazy")
        calls = []
        future._pre_wait = lambda f, t: (calls.append((f, t)), future.set_result(1))
        assert future.value(timeout=1) == 1
        assert calls == [(future, 1)]

    def test_ready_announces_demand(self):
        future = Future(label="lazy")
        calls = []
        future._pre_wait = lambda f, t: calls.append((f, t))
        assert not future.ready()
        assert calls == [(future, 0)]

    def test_no_demand_once_resolved(self):
        future = Future(label="eager")
        calls = []
        future._pre_wait = lambda f, t: calls.append((f, t))
        future.set_result(42)
        assert future.value(timeout=1) == 42
        assert calls == []

    def test_then_propagates_demand_to_parent(self):
        parent = Future(label="parent")
        calls = []
        parent._pre_wait = lambda f, t: (
            calls.append((f, t)),
            parent.set_result(10),
        )
        chained = parent.then(lambda v: v + 1)
        # Touching only the chained future must flush the parent's
        # producer, or the chain would deadlock under pipelining.
        assert chained.value() == 11
        assert calls == [(parent, None)]
