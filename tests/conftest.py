"""Suite-wide fixtures: shm hygiene guard, hypothesis profile and a
manual clock.

The process RTS backend (:mod:`repro.rts.procs`) promises that no
shared-memory segment outlives its SPMD group.  The autouse session
fixture below turns that promise into a suite invariant: any
``pardis_shm_*`` / ``psm_*`` name left under ``/dev/shm`` at teardown
fails the run.

The hypothesis profile suppresses the ``differing_executors`` health
check: backend parametrization deliberately runs one ``@given`` test
from several pytest instances (thread and process), which is exactly
the pattern the check flags.

The ``manual_clock`` fixture replaces :mod:`repro.clock` for one test,
so the test moves time instead of waiting it out.
"""

import threading
import time

import pytest
from hypothesis import HealthCheck, settings

from repro import clock
from repro.rts import shm

settings.register_profile(
    "pardis",
    suppress_health_check=[HealthCheck.differing_executors],
)
settings.load_profile("pardis")


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_shm_segments():
    """No PARDIS shared-memory segment may survive the suite."""
    before = set(shm.leaked_segments())
    yield
    leaked = sorted(set(shm.leaked_segments()) - before)
    assert not leaked, (
        f"shared-memory segments leaked by the suite: {leaked}"
    )


class ManualClock:
    """Real time plus what the test advanced.  Installed in
    :mod:`repro.clock`, it knows the conditions of the timed waits in
    progress, so :meth:`advance` wakes each of them."""

    def __init__(self) -> None:
        self.offset = 0.0
        self.waiting: list[threading.Condition] = []

    def now(self) -> float:
        return time.monotonic() + self.offset

    def wait_for(self, cond, ready, timeout):
        if timeout is None:
            return _wait_for(cond, ready, timeout)
        self.waiting.append(cond)
        try:
            return _wait_for(cond, ready, timeout)
        finally:
            self.waiting.remove(cond)

    def advance(self, seconds: float) -> None:
        """Move time on: every pending timeout of at most ``seconds``
        fires at once."""
        self.offset += seconds
        for cond in list(self.waiting):
            with cond:
                cond.notify_all()


_wait_for = clock.wait_for


@pytest.fixture
def manual_clock(monkeypatch):
    manual = ManualClock()
    monkeypatch.setattr(clock, "now", manual.now)
    monkeypatch.setattr(clock, "wait_for", manual.wait_for)
    return manual
