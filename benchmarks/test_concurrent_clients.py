"""Concurrent-client contention bench — the throughput side of §3.3's
argument for separating the invocation header from data transfer,
plus the real fan-in sweep: simulated clients against the event-loop
server (``repro.bench.clients``), scaled 100 → 10k by
``tools/bench_clients.py`` and smoke-checked here."""

import pytest

from repro.bench import concurrent_clients, format_table
from repro.bench.clients import (
    gate_failures,
    run_clients,
    summarize,
)
from repro.simnet import simulate_concurrent
from repro.simnet.calibration import PAPER_SEQUENCE_BYTES

from conftest import register_table

BURSTS = [1, 2, 4, 8]


@pytest.fixture(scope="module", autouse=True)
def render(paper_config):
    register_table(format_table(concurrent_clients(paper_config)))


@pytest.mark.parametrize("nclients", BURSTS)
@pytest.mark.parametrize("method", ["centralized", "multiport"])
def test_concurrent_burst(benchmark, paper_config, method, nclients):
    result = benchmark(
        simulate_concurrent,
        paper_config,
        method,
        nclients,
        4,
        8,
        PAPER_SEQUENCE_BYTES,
    )
    assert result.makespan > 0


def test_multiport_sustains_higher_aggregate(paper_config):
    for k in BURSTS:
        ct = simulate_concurrent(
            paper_config, "centralized", k, 4, 8, PAPER_SEQUENCE_BYTES
        )
        mp = simulate_concurrent(
            paper_config, "multiport", k, 4, 8, PAPER_SEQUENCE_BYTES
        )
        assert mp.aggregate_bandwidth > ct.aggregate_bandwidth


def test_pipelining_improves_aggregate_bandwidth(paper_config):
    """Transfers of later requests overlap processing of earlier ones,
    so aggregate bandwidth rises with burst size for both methods."""
    for method in ("centralized", "multiport"):
        rates = [
            simulate_concurrent(
                paper_config, method, k, 4, 8, PAPER_SEQUENCE_BYTES
            ).aggregate_bandwidth
            for k in BURSTS
        ]
        assert rates == sorted(rates)


def test_multiport_approaches_link_saturation(paper_config):
    result = simulate_concurrent(
        paper_config, "multiport", 8, 4, 8, PAPER_SEQUENCE_BYTES
    )
    assert result.link_utilization > 0.85
    assert (
        result.aggregate_bandwidth
        > 0.85 * paper_config.link_bandwidth
    )


# ---------------------------------------------------------------------------
# Real fan-in: simulated identities against the event-loop server
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fanin_points():
    """A scaled-down sweep (the full 100 → 10k curve is
    ``tools/bench_clients.py``; its committed result is gated in the
    CI ``clients`` job)."""
    return run_clients(
        clients=[20, 100],
        total_requests=600,
        connections=32,
        repeats=2,
    )


def test_fanin_sweep_completes_without_errors(fanin_points):
    assert [p.clients for p in fanin_points] == [20, 100]
    for point in fanin_points:
        assert point.errors == 0
        assert point.goodput_rps > 0
        # Every admitted request left the dispatch layer: the
        # governor's books balance when the point ends.
        assert (
            point.server_requests["inflight"] == 0
        ), point.server_requests


def test_fanin_goodput_stays_flat(fanin_points):
    # Generous in-suite ratio: this tiny sweep exists to catch "5x
    # collapse under fan-in" regressions quickly, not to measure; the
    # committed full curve carries the 0.8x acceptance gate.
    assert gate_failures(fanin_points, min_ratio=0.5) == []
    assert summarize(fanin_points)["total_errors"] == 0


def test_fanin_connection_budget_multiplexes_identities(fanin_points):
    # 100 identities over a 32-connection budget: the event loop
    # demuxes by request-id identity, not by socket.
    peak = fanin_points[-1]
    assert peak.clients == 100
    assert peak.connections == 32
    assert peak.server_requests["completed"] >= peak.requests
