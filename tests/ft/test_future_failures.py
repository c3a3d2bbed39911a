"""Failed non-blocking invocations through the future surface:
`.exception()`, `.then` chains (including their `_pre_wait` demand
flush), and pipelined requests draining behind a failed one."""

import threading

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultyFabric
from repro.ft.policy import DeadlineExceeded
from repro.orb.transport import Fabric

NB_IDL = """
interface worker {
    double twice(in double x);
};
"""

NO_RETRY = FtPolicy(deadline_ms=200.0, max_retries=0)


@pytest.fixture(scope="module")
def idl():
    return compile_idl(NB_IDL, module_name="future_failures_idl")


class Valve:
    """Drops the listed frame kinds while armed, up to ``limit``."""

    def __init__(self, kinds, limit=None):
        self.kinds = frozenset(kinds)
        self.limit = limit
        self.injected = 0
        self.armed = False
        self._lock = threading.Lock()

    def decide(self, kind):
        with self._lock:
            if not self.armed or kind not in self.kinds:
                return ()
            if self.limit is not None and self.injected >= self.limit:
                return ()
            self.injected += 1
            return ("drop",)


def _orb(valve):
    return ORB(
        "future-failures",
        fabric=FaultyFabric(Fabric("future-failures"), valve),
        timeout=0.2,
    )


def _serve(orb, idl):
    class Worker(idl.worker_skel):
        def twice(self, x):
            return 2.0 * x

    orb.serve(
        "worker",
        lambda ctx: Worker(),
        nthreads=1,
    )


def test_failed_invocation_resolves_future_with_exception(idl):
    valve = Valve(kinds=("request",))
    with _orb(valve) as orb:
        _serve(orb, idl)
        runtime = orb.client_runtime(label="nb-fail")
        try:
            proxy = idl.worker._bind("worker", runtime, ft_policy=NO_RETRY)
            valve.armed = True
            future = proxy.twice_nb(1.0)
            exc = future.exception(timeout=30.0)
            assert isinstance(exc, DeadlineExceeded)
            assert exc.operation == "twice"
            with pytest.raises(DeadlineExceeded):
                future.value(timeout=5.0)
        finally:
            runtime.close()


def test_then_chain_propagates_invocation_failure(idl):
    valve = Valve(kinds=("request",))
    with _orb(valve) as orb:
        _serve(orb, idl)
        runtime = orb.client_runtime(label="nb-then")
        try:
            proxy = idl.worker._bind("worker", runtime, ft_policy=NO_RETRY)
            valve.armed = True
            chained = proxy.twice_nb(1.0).then(lambda v: v + 1.0)
            with pytest.raises(DeadlineExceeded):
                chained.value(timeout=30.0)
        finally:
            runtime.close()


def test_then_chain_flushes_lazy_producer_on_success(idl):
    # Reading only the chained future must announce demand through to
    # the pipelined worker's lazy reply completion (`_pre_wait`), or
    # this blocks until some unrelated flush.
    valve = Valve(kinds=())
    with _orb(valve) as orb:
        _serve(orb, idl)
        runtime = orb.client_runtime(label="nb-chain")
        try:
            proxy = idl.worker._bind("worker", runtime)
            chained = proxy.twice_nb(3.0).then(lambda v: v * 10.0)
            assert chained.value(timeout=30.0) == 60.0
        finally:
            runtime.close()


def test_pipelined_requests_behind_a_failure_drain(idl):
    # Four requests in flight; the first one's request frame is lost
    # and retries are off.  The failure must resolve only its own
    # future — the three behind it complete with their own replies.
    valve = Valve(kinds=("request",), limit=1)
    with _orb(valve) as orb:
        _serve(orb, idl)
        runtime = orb.client_runtime(label="nb-drain", pipeline_depth=4)
        try:
            proxy = idl.worker._bind("worker", runtime, ft_policy=NO_RETRY)
            valve.armed = True
            futures = [proxy.twice_nb(float(i)) for i in range(4)]
            assert isinstance(
                futures[0].exception(timeout=30.0), DeadlineExceeded
            )
            for i in (1, 2, 3):
                assert futures[i].value(timeout=30.0) == 2.0 * i
        finally:
            runtime.close()


def test_failure_order_is_deterministic_across_reads(idl):
    # Reading the trailing futures first must not change outcomes:
    # the failed head still fails, the others still succeed.
    valve = Valve(kinds=("request",), limit=1)
    with _orb(valve) as orb:
        _serve(orb, idl)
        runtime = orb.client_runtime(label="nb-order", pipeline_depth=4)
        try:
            proxy = idl.worker._bind("worker", runtime, ft_policy=NO_RETRY)
            valve.armed = True
            futures = [proxy.twice_nb(float(i)) for i in range(4)]
            assert futures[3].value(timeout=30.0) == 6.0
            assert futures[1].value(timeout=30.0) == 2.0
            assert futures[2].value(timeout=30.0) == 4.0
            assert isinstance(
                futures[0].exception(timeout=30.0), DeadlineExceeded
            )
        finally:
            runtime.close()
