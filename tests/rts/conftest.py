"""Backend parametrization for the RTS contract suites.

The SPMD-contract modules listed in ``PROCESS_MODULES`` run twice:
once per RTS backend, selected through the ``PARDIS_RTS`` environment
variable so the tests themselves stay backend-oblivious (ISSUE 7's
"existing suites pass unmodified").  Modules that exercise
thread-backend internals directly (``create_group``, futures
plumbing) keep their single run; ``test_mpi`` opts its launcher-based
classes into the process run itself, by subclass, so its
hand-driven thread cases keep one run and their names.  One-sided
windows exist between threads only, so ``THREAD_MODULES`` pin the
thread backend whatever the environment says.
"""

import os

import pytest

from repro.rts import process_backend_supported
from repro.rts.backends import ENV_VAR

#: Modules whose tests go through launcher-selected backends.
PROCESS_MODULES = {"test_executor", "test_interface"}

#: Modules whose subject exists on the thread backend only.
THREAD_MODULES = {"test_onesided"}


def pytest_generate_tests(metafunc):
    if "rts_backend" not in metafunc.fixturenames:
        return
    module = metafunc.module.__name__.rpartition(".")[2]
    if module in PROCESS_MODULES:
        metafunc.parametrize(
            "rts_backend",
            ["thread", "process"],
            indirect=True,
            scope="module",
        )


@pytest.fixture(scope="module")
def rts_backend(request):
    backend = getattr(request, "param", None)
    if request.module.__name__.rpartition(".")[2] in THREAD_MODULES:
        backend = "thread"
    if backend is None:
        yield os.environ.get(ENV_VAR) or "thread"
        return
    if backend == "process" and not process_backend_supported():
        pytest.skip("process RTS backend needs the fork start method")
    old = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = backend
    try:
        yield backend
    finally:
        if old is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = old


@pytest.fixture(autouse=True)
def _rts_backend_env(rts_backend):
    yield
