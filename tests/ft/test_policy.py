"""Unit tests of the QoS policy layer (repro.ft.policy)."""

import pytest

from repro.ft.policy import (
    DeadlineExceeded,
    Failure,
    FtPolicy,
    InvocationRetriesExhausted,
    effective_policy,
    failure_to_exception,
    reconstruct_error,
)
from repro.orb.operation import RemoteError
from repro.orb.transport import TransportError


class TestValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            FtPolicy(deadline_ms=-1)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            FtPolicy(max_retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            FtPolicy(backoff_base_ms=-1)

    def test_policy_is_immutable(self):
        policy = FtPolicy(max_retries=3)
        with pytest.raises(AttributeError):
            policy.max_retries = 5


class TestRetryability:
    def test_timeout_retryable_by_default(self):
        assert FtPolicy().is_retryable(
            Failure("timeout", "TIMEOUT", "late")
        )

    def test_transport_and_unreachable_failures_are_retryable(self):
        policy = FtPolicy()
        assert policy.is_retryable(Failure("transport", "X", ""))
        assert policy.is_retryable(Failure("unreachable", "X", ""))

    def test_remote_failure_uses_its_category(self):
        policy = FtPolicy()
        assert policy.is_retryable(
            Failure("remote", "TRANSIENT", "busy")
        )
        assert not policy.is_retryable(
            Failure("remote", "MARSHAL", "bad bytes")
        )


class TestBackoff:
    def test_deterministic_in_request_id_and_attempt(self):
        policy = FtPolicy(backoff_base_ms=10.0)
        a = policy.backoff_seconds(2, request_id=42)
        b = policy.backoff_seconds(2, request_id=42)
        assert a == b
        assert a != policy.backoff_seconds(2, request_id=43)

    def test_exponential_growth_up_to_cap(self):
        policy = FtPolicy(backoff_base_ms=10.0, backoff_cap_ms=35.0)
        # Jitter is in [0.5, 1.0] of the capped raw delay.
        assert 0.005 <= policy.backoff_seconds(1, 7) <= 0.010
        assert 0.010 <= policy.backoff_seconds(2, 7) <= 0.020
        assert 0.0175 <= policy.backoff_seconds(5, 7) <= 0.035

    def test_zero_base_means_no_sleep(self):
        assert FtPolicy(backoff_base_ms=0).backoff_seconds(3, 1) == 0.0


class TestExceptionMapping:
    def test_timeout_with_no_retries_is_deadline_exceeded(self):
        exc = failure_to_exception(
            Failure("timeout", "TIMEOUT", "late"),
            FtPolicy(deadline_ms=50.0),
            operation="step",
            collective_index=3,
            attempts=0,
        )
        assert isinstance(exc, DeadlineExceeded)
        assert exc.collective_index == 3
        assert exc.category == "TIMEOUT"

    def test_exhausted_deadline_wins_over_retries(self):
        exc = failure_to_exception(
            Failure(
                "timeout", "TIMEOUT", "late", deadline_exhausted=True
            ),
            FtPolicy(deadline_ms=50.0, max_retries=5),
            operation="step",
            collective_index=0,
            attempts=2,
        )
        assert isinstance(exc, DeadlineExceeded)

    def test_retried_transport_failure_is_retries_exhausted(self):
        exc = failure_to_exception(
            Failure("transport", "COMM_FAILURE", "conn reset"),
            FtPolicy(max_retries=2),
            operation="step",
            collective_index=1,
            attempts=2,
        )
        assert isinstance(exc, InvocationRetriesExhausted)
        assert "conn reset" in str(exc)

    def test_reconstruct_remote_and_transport(self):
        remote = reconstruct_error(
            Failure("remote", "MARSHAL", "boom")
        )
        assert isinstance(remote, RemoteError)
        assert remote.category == "MARSHAL"
        wire = reconstruct_error(Failure("transport", "X", "gone"))
        assert isinstance(wire, TransportError)


class TestEffectivePolicy:
    def test_explicit_policy_wins(self):
        class Runtime:
            ft_policy = FtPolicy(max_retries=1)

        explicit = FtPolicy(max_retries=9)
        assert effective_policy(explicit, Runtime()) is explicit

    def test_falls_back_to_runtime_then_none(self):
        class Runtime:
            ft_policy = FtPolicy(max_retries=1)

        assert effective_policy(None, Runtime()).max_retries == 1
        # ``ft_policy`` is declared surface of a runtime (``None`` =
        # no policy), not something the reader probes for.
        Runtime.ft_policy = None
        assert effective_policy(None, Runtime()) is None
