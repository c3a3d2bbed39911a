"""Concurrent-client contention bench — the throughput side of §3.3's
argument for separating the invocation header from data transfer —
plus real fan-in at its largest claimed point: 10 000 client
identities cost the server what 50 do per request, counted by the
check of ``tests/orb/test_fanin_count.py``."""

import pytest

from repro.bench import concurrent_clients, format_table
from repro.simnet import simulate_concurrent
from repro.simnet.calibration import PAPER_SEQUENCE_BYTES

from conftest import register_table
from tests.orb.test_fanin_count import assert_flat

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



def test_a_request_costs_the_same_at_10000_identities_as_at_50():
    assert_flat(50, 10_000)
