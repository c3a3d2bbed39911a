"""Processor-sharing link tests."""

import signal

import pytest

from repro.simnet import paper_testbed, simulate_multiport
from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.network import SharedLink


def run_transfers(bandwidth, jobs, latency=0.0):
    """Start (delay, nbytes) transfers; return completion times."""
    sim = Simulator()
    link = SharedLink(sim, bandwidth, latency)
    done = {}

    def starter(tag, delay, nbytes):
        yield sim.timeout(delay)
        yield link.transmit(nbytes)
        done[tag] = sim.now

    for tag, (delay, nbytes) in enumerate(jobs):
        sim.process(starter(tag, delay, nbytes))
    sim.run()
    return done, link


class TestSingleTransfer:
    def test_alone_runs_at_full_bandwidth(self):
        done, _ = run_transfers(100.0, [(0.0, 1000.0)])
        assert done[0] == pytest.approx(10.0)

    def test_latency_added_once(self):
        done, _ = run_transfers(100.0, [(0.0, 1000.0)], latency=2.0)
        assert done[0] == pytest.approx(12.0)

    def test_zero_bytes_costs_latency_only(self):
        done, _ = run_transfers(100.0, [(0.0, 0.0)], latency=3.0)
        assert done[0] == pytest.approx(3.0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        link = SharedLink(sim, 10.0)
        with pytest.raises(SimulationError):
            link.transmit(-1)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            SharedLink(Simulator(), 0.0)


class TestProcessorSharing:
    def test_two_equal_transfers_share_fairly(self):
        # Two 1000-byte transfers on a 100 B/t link: both finish at 20.
        done, _ = run_transfers(100.0, [(0.0, 1000.0), (0.0, 1000.0)])
        assert done[0] == pytest.approx(20.0)
        assert done[1] == pytest.approx(20.0)

    def test_short_job_leaves_long_job_to_full_rate(self):
        # A: 1000 bytes, B: 200 bytes, start together at 100 B/t.
        # B finishes at t=4 (rate 50). A then has 800 bytes at full
        # rate: 4 + 8 = 12... A did 200 in first 4 -> 800 left / 100.
        done, _ = run_transfers(100.0, [(0.0, 1000.0), (0.0, 200.0)])
        assert done[1] == pytest.approx(4.0)
        assert done[0] == pytest.approx(12.0)

    def test_late_arrival_slows_first(self):
        # A starts alone; B arrives at t=2 when A has 800 left.
        # They share until B (500) or A (800) finishes: B at 2+10=12,
        # A has 300 left at 12, finishes at 15.
        done, _ = run_transfers(100.0, [(0.0, 1000.0), (2.0, 500.0)])
        assert done[1] == pytest.approx(12.0)
        assert done[0] == pytest.approx(15.0)

    def test_total_throughput_is_conserved(self):
        jobs = [(0.0, 500.0), (0.0, 1500.0), (1.0, 1000.0)]
        done, link = run_transfers(100.0, jobs)
        # Last completion: at least total_bytes/bandwidth after the
        # earliest start; the link is work-conserving so exactly that
        # here (no idle gaps).
        assert max(done.values()) == pytest.approx(3000.0 / 100.0)

    def test_utilization_accounting(self):
        sim = Simulator()
        link = SharedLink(sim, 100.0)
        def proc():
            yield sim.timeout(10.0)  # idle period
            yield link.transmit(1000.0)
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(20.0)
        assert link.utilization() == pytest.approx(0.5)
        assert link.bytes_carried == 1000.0

    def test_many_concurrent_transfers(self):
        jobs = [(0.0, 100.0)] * 10
        done, _ = run_transfers(100.0, jobs)
        for t in done.values():
            assert t == pytest.approx(10.0)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a simulation whose clock stops."""

    def expire(signum, frame):
        raise TimeoutError("the simulated clock stopped advancing")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestClockResolution:
    """A transfer whose remaining time is below the clock's resolution
    at the current instant finishes there; its wake must not reschedule
    itself at the same instant forever."""

    def test_a_transfer_too_short_to_advance_the_clock_finishes(
        self, deadline
    ):
        sim = Simulator()
        link = SharedLink(sim, 1e6)
        done = []

        def proc():
            yield sim.timeout(1000.0)
            # 2e-9 bytes take 2e-15 time units: 1000.0 + 2e-15 == 1000.0.
            yield link.transmit(2e-9)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [1000.0]

    def test_a_round_trip_that_ends_on_a_sub_resolution_remainder(
        self, deadline
    ):
        # At t ~ 541.95 ms one reply chunk has 1.43e-9 bytes left:
        # above the 1e-9 threshold, and 3.4e-14 ms from done.
        result = simulate_multiport(
            paper_testbed(), 1, 5, 8 * 2**20, reply_bytes=8 * 2**20
        )
        assert result.t_inv > 0
