"""Unit tests for the concurrent-client contention model."""

import pytest

from repro.simnet import (
    paper_testbed,
    simulate_centralized,
    simulate_concurrent,
    simulate_multiport,
)
from repro.simnet.calibration import PAPER_SEQUENCE_BYTES


@pytest.fixture(scope="module")
def cfg():
    return paper_testbed()


class TestConcurrentModel:
    def test_rejects_bad_inputs(self, cfg):
        with pytest.raises(ValueError, match="unknown method"):
            simulate_concurrent(cfg, "postal", 1, 1, 1, 800)
        with pytest.raises(ValueError, match="at least one"):
            simulate_concurrent(cfg, "multiport", 0, 1, 1, 800)

    def test_single_burst_matches_solo(self, cfg):
        """A burst of one runs the single invocation's stages: the same
        times to the last bit, the multi-port header included."""
        solo = {
            "centralized": simulate_centralized,
            "multiport": simulate_multiport,
        }
        for method, simulate in solo.items():
            for nbytes in (0, 800, PAPER_SEQUENCE_BYTES):
                for nclient, nserver in ((1, 1), (4, 8), (3, 5)):
                    burst = simulate_concurrent(
                        cfg, method, 1, nclient, nserver, nbytes
                    )
                    alone = simulate(cfg, nclient, nserver, nbytes)
                    assert burst.makespan == alone.t_inv, (
                        method, nbytes, nclient, nserver
                    )
                    assert burst.mean_latency == alone.t_inv

    def test_makespan_grows_sublinearly(self, cfg):
        """Pipelining: k requests take far less than k times one."""
        for method in ("centralized", "multiport"):
            one = simulate_concurrent(
                cfg, method, 1, 4, 8, PAPER_SEQUENCE_BYTES
            ).makespan
            four = simulate_concurrent(
                cfg, method, 4, 4, 8, PAPER_SEQUENCE_BYTES
            ).makespan
            assert one < four < 4 * one

    def test_mean_latency_at_most_makespan(self, cfg):
        result = simulate_concurrent(
            cfg, "multiport", 4, 4, 8, PAPER_SEQUENCE_BYTES
        )
        assert result.mean_latency <= result.makespan

    def test_aggregate_bandwidth_bounded_by_link(self, cfg):
        for k in (1, 2, 8):
            result = simulate_concurrent(
                cfg, "multiport", k, 4, 8, PAPER_SEQUENCE_BYTES
            )
            assert result.aggregate_bandwidth <= cfg.link_bandwidth

    def test_deterministic(self, cfg):
        a = simulate_concurrent(cfg, "multiport", 3, 2, 4, 10**6)
        b = simulate_concurrent(cfg, "multiport", 3, 2, 4, 10**6)
        assert a == b
