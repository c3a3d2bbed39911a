"""Family-B rules: collective-correctness checks on SPMD programs,
plus embedded-IDL delegation."""

import pathlib
import re

import pytest

from repro.lint import lint_file, lint_paths, lint_python_source

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: Every row linting the fixtures directory gives, in output order.
FIXTURE_ROWS = [
    ("bad_collision.idl", 9, "PD104"),
    ("bad_dead_typedef.idl", 1, "PD105"),
    ("bad_divergent_helper.py", 11, "PD210"),
    ("bad_early_return.py", 11, "PD212"),
    ("bad_element.idl", 2, "PD102"),
    ("bad_embedded.py", 9, "PD101"),
    ("bad_exception_collective.py", 9, "PD211"),
    ("bad_group_bind.py", 9, "PD213"),
    ("bad_mixed_out.idl", 4, "PD103"),
    ("bad_oneway.idl", 2, "PD107"),
    ("bad_raises.idl", 2, "PD106"),
    ("bad_rank_guard.py", 6, "PD201"),
    ("bad_retries_no_cache.py", 10, "PD209"),
    ("bad_syntax.idl", 1, "PD100"),
    ("bad_touch_loop.py", 8, "PD203"),
    ("bad_transfer_mismatch.py", 6, "PD204"),
    ("bad_transfer_name.py", 5, "PD205"),
    ("bad_unagreed_invocation.py", 7, "PD208"),
    ("bad_unbounded.idl", 4, "PD101"),
    ("bad_unconsumed.py", 5, "PD202"),
    ("bad_unconsumed.py", 9, "PD202"),
]


def test_the_fixtures_directory_gives_exactly_these_rows():
    rows = [
        (pathlib.Path(d.file).name, d.line, d.rule)
        for d in lint_paths([str(FIXTURES)])
    ]
    assert rows == FIXTURE_ROWS


PY_CASES = [
    ("bad_rank_guard.py", "PD201", 6, "hoist the collective"),
    ("bad_unconsumed.py", "PD202", 5, "assign the future"),
    ("bad_touch_loop.py", "PD203", 8, "issue every request first"),
    ("bad_transfer_mismatch.py", "PD204", 6, "multiport=True"),
    ("bad_transfer_name.py", "PD205", 5, "valid transfer methods"),
    ("bad_unagreed_invocation.py", "PD208", 7, "agree"),
    ("bad_retries_no_cache.py", "PD209", 10, "reply_cache_bytes"),
    ("bad_group_bind.py", "PD213", 9, "fail over to a sibling"),
    ("bad_divergent_helper.py", "PD210", 11, "same collective sequence"),
    ("bad_exception_collective.py", "PD211", 9, "reconcile the handler"),
    ("bad_early_return.py", "PD212", 11, "every rank reaches"),
]


@pytest.mark.parametrize("fixture,rule,line,hint", PY_CASES)
def test_fixture_violation_is_reported(fixture, rule, line, hint):
    path = str(FIXTURES / fixture)
    diagnostics = lint_file(path)
    matching = [d for d in diagnostics if d.rule == rule]
    assert matching, (
        f"{fixture}: expected {rule}, got "
        f"{[(d.rule, d.line) for d in diagnostics]}"
    )
    diag = matching[0]
    assert diag.line == line
    assert diag.file == path
    assert hint in diag.hint


def test_good_spmd_fixture_lints_clean():
    assert lint_file(str(FIXTURES / "good_spmd.py")) == []


def test_good_flow_fixture_lints_clean():
    assert lint_file(str(FIXTURES / "good_flow.py")) == []


def test_assigned_never_consumed_future_is_reported():
    diagnostics = lint_file(str(FIXTURES / "bad_unconsumed.py"))
    lines = [d.line for d in diagnostics if d.rule == "PD202"]
    assert lines == [5, 9]


def test_python_syntax_error_is_pd200():
    diagnostics = lint_python_source("def broken(:\n", "x.py")
    [diag] = diagnostics
    assert diag.rule == "PD200"
    assert diag.severity == "error"


def test_embedded_idl_lines_map_to_host_file():
    path = str(FIXTURES / "bad_embedded.py")
    diagnostics = lint_file(path)
    [diag] = [d for d in diagnostics if d.rule == "PD101"]
    # IDL literal opens on line 5; 'void consume' is IDL line 5,
    # so the host line is 5 + (5 - 1) = 9.
    assert diag.line == 9
    assert diag.file == path


def test_collective_outside_guard_is_clean():
    source = (
        "def connect(proxy_cls, runtime, rank):\n"
        "    proxy = proxy_cls._spmd_bind('solver', runtime)\n"
        "    if rank == 0:\n"
        "        print('bound')\n"
        "    return proxy\n"
    )
    assert lint_python_source(source) == []


def test_rank_guard_around_noncollective_is_clean():
    source = (
        "def announce(comm, rank, value):\n"
        "    if rank == 0:\n"
        "        comm.send(value, 1)\n"
    )
    assert lint_python_source(source) == []


#: PD201/PD208 edge cases of the one rank-guard walk: source, then
#: the expected ``(rule, line, guard line)`` rows.
GUARD_CASES = {
    "elif-rank-arm-is-its-own-guard": (
        "def f(obj, rank):\n"
        "    if rank == 0:\n"
        "        pass\n"
        "    elif rank == 1:\n"
        "        obj.invoke_all('x')\n",
        [("PD201", 5, 4)],
    ),
    "plain-elif-inherits-the-rank-guard": (
        "def f(obj, rank, flag):\n"
        "    if rank == 0:\n"
        "        pass\n"
        "    elif flag:\n"
        "        obj.invoke_all('x')\n",
        [("PD201", 5, 2)],
    ),
    "rank-elif-after-a-plain-if": (
        "def f(obj, rank, flag):\n"
        "    if flag:\n"
        "        obj.invoke_all('x')\n"
        "    elif rank == 0:\n"
        "        obj.synchronize()\n",
        [("PD201", 5, 4)],
    ),
    "while-rank": (
        "def spin(obj, rank):\n"
        "    while rank != 0:\n"
        "        obj.invoke_all('step')\n",
        [("PD201", 3, 2)],
    ),
    "collective-in-the-guard-test": (
        "def f(obj, rank):\n"
        "    if rank == 0 and obj.invoke_all('x'):\n"
        "        pass\n"
        "    while obj.synchronize() and rank:\n"
        "        pass\n",
        [],
    ),
    "nested-def-under-a-guard": (
        "def make(proxy_cls, runtime, rank):\n"
        "    if rank == 0:\n"
        "        def later():\n"
        "            return proxy_cls._spmd_bind('s', runtime)\n"
        "        return later\n"
        "    return None\n",
        [],
    ),
    "lambda-under-a-guard": (
        "def f(obj, rank):\n"
        "    if rank == 0:\n"
        "        return lambda: obj.invoke_all('x')\n",
        [],
    ),
    "guard-inside-a-nested-def": (
        "def f(obj, rank):\n"
        "    def inner():\n"
        "        if rank == 0:\n"
        "            obj.synchronize()\n"
        "    return inner\n",
        [("PD201", 4, 3)],
    ),
    "one-call-both-rules": (
        "def f(cls, rt, rank):\n"
        "    p = cls._spmd_bind('s', rt)\n"
        "    if rank == 0:\n"
        "        p.synchronize()\n",
        [("PD201", 4, 3), ("PD208", 4, 3)],
    ),
    "agreement-elsewhere-in-the-function": (
        "def f(cls, rt, rank, rts):\n"
        "    p = cls._spmd_bind('s', rt)\n"
        "    if rank == 0:\n"
        "        p.status()\n"
        "    agree(rts, None)\n",
        [],
    ),
    "agreement-only-in-another-function": (
        "def reconcile(rts):\n"
        "    agree(rts, None)\n"
        "def f(cls, rt, rank):\n"
        "    p = cls._spmd_bind('s', rt)\n"
        "    if rank == 0:\n"
        "        p.status()\n",
        [("PD208", 6, 5)],
    ),
    "module-scope-counts-agreement-anywhere-in-the-module": (
        "p = cls._spmd_bind('s', rt)\n"
        "if rank == 0:\n"
        "    p.status()\n"
        "def reconcile(rts):\n"
        "    agree(rts, None)\n",
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_rank_guard_walk(case):
    source, expected = GUARD_CASES[case]
    rows = [
        (
            d.rule,
            d.line,
            int(re.search(r"\(line (\d+)\)", d.message).group(1)),
        )
        for d in lint_python_source(source)
        if d.rule in ("PD201", "PD208")
    ]
    assert rows == expected


def test_event_wait_is_not_touch_in_rank_loop():
    source = (
        "def pause(events, size):\n"
        "    for i in range(size):\n"
        "        events[i].wait()\n"
    )
    assert lint_python_source(source) == []


def test_dynamic_transfer_value_is_not_checked():
    source = (
        "def connect(proxy_cls, runtime, method):\n"
        "    return proxy_cls._spmd_bind(\n"
        "        'grid', runtime, transfer=method)\n"
    )
    assert lint_python_source(source) == []


def test_matching_transfer_and_registration_is_clean():
    source = (
        "def go(orb, proxy_cls, runtime, factory):\n"
        "    orb.serve('grid', factory, multiport=True)\n"
        "    return proxy_cls._spmd_bind(\n"
        "        'grid', runtime, transfer='multiport')\n"
    )
    assert lint_python_source(source) == []


def test_guarded_invocation_with_agreement_is_clean():
    source = (
        "from repro.ft.agreement import agree_failure\n"
        "def probe(proxy_cls, runtime, rank, rts):\n"
        "    solver = proxy_cls._spmd_bind('solver', runtime)\n"
        "    failure = None\n"
        "    if rank == 0:\n"
        "        try:\n"
        "            solver.status()\n"
        "        except Exception:\n"
        "            failure = 'down'\n"
        "    return agree_failure(rts, failure)\n"
    )
    assert [
        d
        for d in lint_python_source(source)
        if d.rule == "PD208"
    ] == []


def test_unguarded_proxy_invocation_is_clean():
    source = (
        "def run(proxy_cls, runtime, rank):\n"
        "    solver = proxy_cls._spmd_bind('solver', runtime)\n"
        "    return solver.step(rank)\n"
    )
    assert lint_python_source(source) == []


def test_guarded_call_on_untracked_object_is_clean():
    source = (
        "def run(log, rank):\n"
        "    if rank == 0:\n"
        "        log.write('hello')\n"
    )
    assert lint_python_source(source) == []


class TestGroupBindPolicy:
    """PD213: group bindings with no policy at all."""

    def test_only_the_bare_bind_is_reported(self):
        # Any policy engages failover, even one leaving max_retries
        # at 0: the FAIL_FAST and inline binds are clean.
        diagnostics = lint_file(str(FIXTURES / "bad_group_bind.py"))
        lines = [d.line for d in diagnostics if d.rule == "PD213"]
        assert lines == [9]

    def test_retrying_policy_is_clean(self):
        source = (
            "from repro.ft.policy import FtPolicy\n"
            "RETRY = FtPolicy(max_retries=2)\n"
            "def run(proxy_cls, runtime):\n"
            "    inline = proxy_cls._group_bind(\n"
            "        'workers', runtime,\n"
            "        ft_policy=FtPolicy(max_retries=1))\n"
            "    named = proxy_cls._group_bind(\n"
            "        'workers', runtime, ft_policy=RETRY)\n"
            "    return inline, named\n"
        )
        assert lint_python_source(source) == []

    def test_unknown_policy_provenance_is_assumed_intentional(self):
        source = (
            "def run(proxy_cls, runtime, policy):\n"
            "    return proxy_cls._group_bind(\n"
            "        'workers', runtime, ft_policy=policy)\n"
        )
        assert lint_python_source(source) == []

    def test_singleton_binds_are_not_flagged(self):
        source = (
            "def run(proxy_cls, runtime):\n"
            "    return proxy_cls._bind('solo', runtime)\n"
        )
        assert [
            d
            for d in lint_python_source(source)
            if d.rule == "PD213"
        ] == []
