"""The interprocedural collective-flow rules (PD210–PD212).

Unit tests pin the analyzer's reporting behavior on the shapes it
exists for; the hypothesis block generates whole families of
rank-guarded call graphs and asserts the no-false-positive
guarantee: agreement-reconciled functions, collectively-aligned
branches, and uncertain control flow never produce a flow
diagnostic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_python_source

FLOW_RULES = frozenset(("PD210", "PD211", "PD212"))


def flow_rules(source):
    return [
        (d.rule, d.line)
        for d in lint_python_source(source)
        if d.rule in FLOW_RULES
    ]


# ---------------------------------------------------------------------------
# PD210
# ---------------------------------------------------------------------------


def test_collective_two_calls_deep_is_found():
    source = (
        "def inner(rts):\n"
        "    rts.synchronize()\n"
        "def outer(rts):\n"
        "    inner(rts)\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        outer(rts)\n"
    )
    assert flow_rules(source) == [("PD210", 7)]


def test_message_names_the_call_chain():
    source = (
        "def inner(rts):\n"
        "    rts.synchronize()\n"
        "def outer(rts):\n"
        "    inner(rts)\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        outer(rts)\n"
    )
    [diag] = [
        d
        for d in lint_python_source(source)
        if d.rule == "PD210"
    ]
    assert "outer -> inner" in diag.message


def test_both_sides_calling_same_collective_is_clean():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        helper(rts)\n"
        "    else:\n"
        "        helper(rts)\n"
    )
    assert flow_rules(source) == []


def test_different_helpers_same_collective_sequence_is_clean():
    source = (
        "def a(rts):\n"
        "    rts.synchronize()\n"
        "def b(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        a(rts)\n"
        "    else:\n"
        "        b(rts)\n"
    )
    assert flow_rules(source) == []


def test_helpers_with_different_collectives_diverge():
    source = (
        "def a(orb, obj):\n"
        "    orb.invoke_all(obj, 'x', ())\n"
        "def b(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, orb, rts, obj):\n"
        "    if rank == 0:\n"
        "        a(orb, obj)\n"
        "    else:\n"
        "        b(rts)\n"
    )
    assert [r for r, _ in flow_rules(source)] == ["PD210"]


def test_rank_loop_around_collective_call_is_found():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    for _ in range(rank):\n"
        "        helper(rts)\n"
    )
    assert [r for r, _ in flow_rules(source)] == ["PD210"]


def test_unresolved_call_is_assumed_collective_free():
    # some_library.poll is not defined in this module: the analyzer
    # must not guess (that is the documented intraprocedural
    # fallback).
    source = (
        "def main(rank, lib):\n"
        "    if rank == 0:\n"
        "        lib.poll()\n"
    )
    assert flow_rules(source) == []


def test_direct_guarded_collective_is_left_to_pd201():
    source = (
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        rts.synchronize()\n"
    )
    rules = [d.rule for d in lint_python_source(source)]
    assert "PD201" in rules
    assert not FLOW_RULES.intersection(rules)


def test_agreement_in_function_suppresses_pd210():
    source = (
        "from repro.ft.agreement import agree\n"
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        helper(rts)\n"
        "    agree(rts, None)\n"
    )
    assert flow_rules(source) == []


def test_transitive_agreement_suppresses_pd210():
    # The agreement happens inside a called local function: the
    # suppression must propagate through the call graph too.
    source = (
        "from repro.ft.agreement import agree\n"
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def reconcile(rts):\n"
        "    agree(rts, None)\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        helper(rts)\n"
        "    reconcile(rts)\n"
    )
    assert flow_rules(source) == []


def test_suppression_comment_silences_pd210():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        helper(rts)  # pardis-lint: disable=PD210\n"
    )
    assert flow_rules(source) == []


# ---------------------------------------------------------------------------
# PD211
# ---------------------------------------------------------------------------


def test_collective_via_call_in_handler_is_found():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rts, obj):\n"
        "    try:\n"
        "        obj.step()\n"
        "    except RuntimeError:\n"
        "        helper(rts)\n"
    )
    assert flow_rules(source) == [("PD211", 7)]


def test_agreement_first_in_handler_is_clean():
    source = (
        "from repro.ft.agreement import agree_failure\n"
        "def main(rts, obj):\n"
        "    try:\n"
        "        obj.step()\n"
        "    except RuntimeError:\n"
        "        agree_failure(rts, True)\n"
        "        rts.synchronize()\n"
    )
    assert flow_rules(source) == []


def test_collective_in_try_body_is_clean():
    source = (
        "def main(rts, obj):\n"
        "    try:\n"
        "        rts.synchronize()\n"
        "    except RuntimeError:\n"
        "        pass\n"
    )
    assert flow_rules(source) == []


def test_collective_in_finally_is_clean():
    # finally runs on every rank, exception or not.
    source = (
        "def main(rts, obj):\n"
        "    try:\n"
        "        obj.step()\n"
        "    finally:\n"
        "        rts.synchronize()\n"
    )
    assert flow_rules(source) == []


# ---------------------------------------------------------------------------
# PD212
# ---------------------------------------------------------------------------


def test_early_raise_also_reports():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank != 0:\n"
        "        raise ValueError('follower')\n"
        "    helper(rts)\n"
    )
    assert flow_rules(source) == [("PD212", 5)]


def test_early_return_before_any_collective_is_clean():
    source = (
        "def main(rank, obj):\n"
        "    if rank != 0:\n"
        "        return None\n"
        "    return obj.name\n"
    )
    assert flow_rules(source) == []


def test_both_sides_returning_is_clean_when_aligned():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        helper(rts)\n"
        "        return 'leader'\n"
        "    helper(rts)\n"
        "    return 'follower'\n"
    )
    assert flow_rules(source) == []


# ---------------------------------------------------------------------------
# Conservatism on uncertain flow
# ---------------------------------------------------------------------------


def test_rank_independent_branch_difference_is_clean():
    # The arms differ, but the test does not mention a rank: the
    # branch is assumed collectively consistent (documented limit).
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(flag, rts):\n"
        "    if flag:\n"
        "        helper(rts)\n"
    )
    assert flow_rules(source) == []


def test_loop_with_break_degrades_to_uncertain():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts, items):\n"
        "    if rank == 0:\n"
        "        for item in items:\n"
        "            if item.done:\n"
        "                break\n"
        "            helper(rts)\n"
    )
    assert flow_rules(source) == []


def test_recursive_function_degrades_to_uncertain():
    source = (
        "def walk(rts, n):\n"
        "    if n:\n"
        "        rts.synchronize()\n"
        "        walk(rts, n - 1)\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        walk(rts, 3)\n"
    )
    assert flow_rules(source) == []


def test_collective_inside_a_with_block_counts_once():
    source = (
        "def helper_a(p):\n"
        "    with lock:\n"
        "        p.invoke_all('step')\n"
        "\n"
        "def helper_b(p):\n"
        "    p.invoke_all('step')\n"
        "\n"
        "def main(p, rank):\n"
        "    if rank == 0:\n"
        "        helper_a(p)\n"
        "    else:\n"
        "        helper_b(p)\n"
    )
    assert flow_rules(source) == []


def test_collective_in_a_with_item_still_counts():
    source = (
        "def helper(p):\n"
        "    with lock, p.invoke_all('step'):\n"
        "        pass\n"
        "def main(p, rank):\n"
        "    if rank == 0:\n"
        "        helper(p)\n"
    )
    assert flow_rules(source) == [("PD210", 6)]


def test_match_statement_is_opaque():
    source = (
        "def helper(rts):\n"
        "    rts.synchronize()\n"
        "def main(rank, rts):\n"
        "    if rank == 0:\n"
        "        match rank:\n"
        "            case 0:\n"
        "                helper(rts)\n"
    )
    assert flow_rules(source) == []


# ---------------------------------------------------------------------------
# Hypothesis: the no-false-positive guarantee
# ---------------------------------------------------------------------------

_COLLECTIVES = ("rts.synchronize()", "orb.invoke_all(obj, 'op', ())")


@st.composite
def reconciled_programs(draw):
    """A rank-guarded call graph that always reconciles via the
    agreement API — legal by construction, whatever diverges."""
    n_helpers = draw(st.integers(min_value=1, max_value=3))
    helpers = []
    for i in range(n_helpers):
        body = draw(st.sampled_from(_COLLECTIVES + ("pass",)))
        helpers.append(
            f"def helper_{i}(orb, rts, obj):\n    {body}\n"
        )
    guarded = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_helpers - 1),
            min_size=0,
            max_size=3,
        )
    )
    guard_test = draw(
        st.sampled_from(("rank == 0", "rank != 0", "rank > 1"))
    )
    calls = "".join(
        f"        helper_{i}(orb, rts, obj)\n" for i in guarded
    ) or "        pass\n"
    main = (
        "def main(rank, orb, rts, obj):\n"
        f"    if {guard_test}:\n"
        f"{calls}"
        "    return agree(rts, None)\n"
    )
    return (
        "from repro.ft.agreement import agree\n"
        + "".join(helpers)
        + main
    )


@st.composite
def aligned_programs(draw):
    """A rank-guarded program whose arms issue identical collective
    sequences — aligned by construction."""
    n = draw(st.integers(min_value=0, max_value=3))
    seq = draw(
        st.lists(
            st.sampled_from(_COLLECTIVES), min_size=n, max_size=n
        )
    )
    helper = "def helper(orb, rts, obj):\n" + (
        "".join(f"    {c}\n" for c in seq) or "    pass\n"
    )
    arm = "        helper(orb, rts, obj)\n"
    main = (
        "def main(rank, orb, rts, obj):\n"
        "    if rank == 0:\n"
        f"{arm}"
        "    else:\n"
        f"{arm}"
        "    helper(orb, rts, obj)\n"
    )
    return helper + main


@given(reconciled_programs())
@settings(max_examples=80, deadline=None)
def test_agreement_reconciled_graphs_never_flag(source):
    assert flow_rules(source) == []


@given(aligned_programs())
@settings(max_examples=60, deadline=None)
def test_aligned_graphs_never_flag(source):
    assert flow_rules(source) == []
