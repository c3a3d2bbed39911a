"""Table and figure generators: simulated vs published, side by side."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dist import Proportions
from repro.simnet import (
    SimConfig,
    paper_testbed,
    simulate_centralized,
    simulate_concurrent,
    simulate_multiport,
)
from repro.simnet.calibration import PAPER_SEQUENCE_BYTES
from repro.bench import paper_data as paper


@dataclass
class TableResult:
    """A rendered experiment: rows plus provenance."""

    title: str
    headers: list[str]
    rows: list[list[str]]
    notes: list[str] = field(default_factory=list)


def format_table(result: TableResult) -> str:
    """Render a TableResult as aligned monospace text."""
    widths = [
        max(len(result.headers[i]), *(len(r[i]) for r in result.rows))
        for i in range(len(result.headers))
    ]
    lines = [result.title, "=" * len(result.title)]
    lines.append(
        "  ".join(h.rjust(w) for h, w in zip(result.headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in result.rows:
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _ms(value: float) -> str:
    return f"{value:.1f}"


def table1(cfg: SimConfig | None = None) -> TableResult:
    """Table 1: centralized argument transfer, 2^20 doubles."""
    cfg = cfg or paper_testbed()
    headers = [
        "client", "server", "T_inv", "paper", "pack+send", "recv",
        "paper", "scatter", "paper", "gather",
    ]
    rows = []
    for nclient in (1, 4):
        for nserver in (1, 2, 4, 8):
            b = simulate_centralized(
                cfg, nclient, nserver, PAPER_SEQUENCE_BYTES
            )
            rows.append(
                [
                    str(nclient),
                    str(nserver),
                    _ms(b.t_inv),
                    _ms(paper.TABLE1_PAPER[(nclient, nserver)]),
                    _ms(b.t_pack_send),
                    _ms(b.t_recv),
                    _ms(paper.TABLE1_RECV_PAPER[nserver]),
                    _ms(b.t_scatter),
                    _ms(paper.TABLE1_SCATTER_PAPER[nserver]),
                    _ms(b.t_gather),
                ]
            )
    return TableResult(
        title=(
            "Table 1 — centralized method, one 'in' dsequence of 2^20 "
            "doubles (ms)"
        ),
        headers=headers,
        rows=rows,
        notes=[
            "paper columns transcribed from Keahey & Gannon 1997, "
            "Table 1",
            "client-side gather is folded into the paper's pack+send "
            "group; reported separately here",
        ],
    )


def table2(cfg: SimConfig | None = None) -> TableResult:
    """Table 2: multi-port argument transfer, 2^20 doubles."""
    cfg = cfg or paper_testbed()
    headers = [
        "client", "server", "T_inv", "paper", "send", "pack",
        "recv+unpack", "barrier", "paper", "link-util",
    ]
    rows = []
    for nclient in (1, 2, 4):
        for nserver in (1, 2, 4, 8):
            b = simulate_multiport(
                cfg, nclient, nserver, PAPER_SEQUENCE_BYTES
            )
            rows.append(
                [
                    str(nclient),
                    str(nserver),
                    _ms(b.t_inv),
                    _ms(paper.TABLE2_PAPER[(nclient, nserver)]),
                    _ms(b.t_send),
                    _ms(b.t_pack),
                    _ms(b.t_recv_unpack),
                    _ms(b.t_barrier),
                    _ms(paper.TABLE2_BARRIER_PAPER[(nclient, nserver)]),
                    f"{b.link_utilization:.2f}",
                ]
            )
    return TableResult(
        title=(
            "Table 2 — multi-port method, one 'in' dsequence of 2^20 "
            "doubles (ms)"
        ),
        headers=headers,
        rows=rows,
        notes=[
            "paper T_inv/barrier columns partially reconstructed from "
            "garbled OCR; see repro/bench/paper_data.py",
            "send/pack/recv+unpack are maxima over threads, as in the "
            "paper",
        ],
    )


def figure4(
    cfg: SimConfig | None = None,
    nclient: int = 4,
    nserver: int = 8,
) -> TableResult:
    """Figure 4: effective bandwidth vs sequence length, both methods."""
    cfg = cfg or paper_testbed()
    headers = ["doubles", "centralized MB/s", "multi-port MB/s", "ratio"]
    rows = []
    for exponent in range(1, 8):
        nbytes = 10**exponent * 8
        ct = simulate_centralized(cfg, nclient, nserver, nbytes)
        mp = simulate_multiport(cfg, nclient, nserver, nbytes)
        rows.append(
            [
                f"1e{exponent}",
                f"{ct.effective_bandwidth:.2f}",
                f"{mp.effective_bandwidth:.2f}",
                f"{mp.effective_bandwidth / ct.effective_bandwidth:.2f}",
            ]
        )
    return TableResult(
        title=(
            f"Figure 4 — effective 'in'-argument bandwidth, client="
            f"{nclient} server={nserver}"
        ),
        headers=headers,
        rows=rows,
        notes=[
            f"paper peaks: centralized "
            f"{paper.FIGURE4_PAPER['centralized_peak_mbps']} MB/s, "
            f"multi-port "
            f"{paper.FIGURE4_PAPER['multiport_peak_mbps']} MB/s",
            "methods converge at small sizes (request overhead "
            "dominates), multi-port wins ~2.2x at large sizes",
        ],
    )


def format_figure4(result: TableResult, width: int = 60) -> str:
    """ASCII rendition of Figure 4 (log-x bandwidth curves)."""
    table = format_table(result)
    peak = max(
        float(row[2]) for row in result.rows
    )
    lines = [table, "", "bandwidth (each * = centralized c, m = multi-port)"]
    for row in result.rows:
        cent = float(row[1])
        multi = float(row[2])
        c_pos = int(cent / peak * width)
        m_pos = int(multi / peak * width)
        bar = [" "] * (width + 1)
        bar[c_pos] = "c"
        bar[m_pos] = "m" if m_pos != c_pos else "*"
        lines.append(f"{row[0]:>5} |{''.join(bar)}|")
    return "\n".join(lines)


def uneven_split(cfg: SimConfig | None = None) -> TableResult:
    """§3.3's datapoint: an uneven client split performs comparably."""
    cfg = cfg or paper_testbed()
    even = simulate_multiport(cfg, 4, 8, PAPER_SEQUENCE_BYTES)
    cases = [
        ("even (block)", None),
        ("7:1:9:3", Proportions(7, 1, 9, 3)),
        ("1:1:1:5", Proportions(1, 1, 1, 5)),
        ("5:3:5:3", Proportions(5, 3, 5, 3)),
    ]
    rows = []
    for label, template in cases:
        b = simulate_multiport(
            cfg, 4, 8, PAPER_SEQUENCE_BYTES, client_template=template
        )
        rows.append(
            [label, _ms(b.t_inv), f"{b.t_inv / even.t_inv:.2f}x"]
        )
    return TableResult(
        title=(
            "Uneven client splits — multi-port, client=4 server=8, "
            "2^20 doubles (ms)"
        ),
        headers=["client split", "T_inv", "vs even"],
        rows=rows,
        notes=[
            f"paper: an uneven split timed "
            f"{paper.UNEVEN_SPLIT_PAPER_MS} ms, 'of comparable "
            f"efficiency'",
        ],
    )


def roundtrip(cfg: SimConfig | None = None) -> TableResult:
    """Inout round trips: the same argument travels both directions."""
    cfg = cfg or paper_testbed()
    rows = []
    for nclient, nserver in ((1, 1), (1, 8), (4, 4), (4, 8)):
        ct = simulate_centralized(
            cfg, nclient, nserver, PAPER_SEQUENCE_BYTES,
            reply_bytes=PAPER_SEQUENCE_BYTES,
        )
        mp = simulate_multiport(
            cfg, nclient, nserver, PAPER_SEQUENCE_BYTES,
            reply_bytes=PAPER_SEQUENCE_BYTES,
        )
        rows.append(
            [
                f"{nclient}x{nserver}",
                _ms(ct.t_inv),
                _ms(mp.t_inv),
                f"{ct.t_inv / mp.t_inv:.2f}x",
                f"{2 * PAPER_SEQUENCE_BYTES / (1024**2) / (mp.t_inv / 1e3):.1f}",
            ]
        )
    return TableResult(
        title=(
            "Inout round trip — 2^20 doubles out and back (ms)"
        ),
        headers=[
            "cfg", "centralized", "multi-port", "speedup",
            "multi 2-way MB/s",
        ],
        rows=rows,
        notes=[
            "extends the paper's one-way experiment: an inout argument "
            "travels both directions (the diffusion example's real "
            "pattern)",
            "the multi-port advantage compounds on round trips — both "
            "directions skip staging and parallelize marshaling",
        ],
    )


def ablation_scheduler(cfg: SimConfig | None = None) -> TableResult:
    """How much of the centralized slowdown is scheduler interference?"""
    cfg = cfg or paper_testbed()
    ideal = cfg.without_scheduler()
    rows = []
    for nclient, nserver in ((1, 1), (1, 8), (4, 1), (4, 8)):
        with_sched = simulate_centralized(
            cfg, nclient, nserver, PAPER_SEQUENCE_BYTES
        )
        without = simulate_centralized(
            ideal, nclient, nserver, PAPER_SEQUENCE_BYTES
        )
        mp_with = simulate_multiport(
            cfg, nclient, nserver, PAPER_SEQUENCE_BYTES
        )
        mp_without = simulate_multiport(
            ideal, nclient, nserver, PAPER_SEQUENCE_BYTES
        )
        rows.append(
            [
                f"{nclient}x{nserver}",
                _ms(with_sched.t_inv),
                _ms(without.t_inv),
                _ms(with_sched.t_inv - without.t_inv),
                _ms(mp_with.t_inv),
                _ms(mp_without.t_inv),
                _ms(mp_with.t_inv - mp_without.t_inv),
            ]
        )
    return TableResult(
        title="Ablation — scheduler interference on/off (ms, 2^20 doubles)",
        headers=[
            "cfg", "cent", "cent-ideal", "delta",
            "multi", "multi-ideal", "delta",
        ],
        rows=rows,
        notes=[
            "the paper attributes the centralized method's growth "
            "with thread count to descheduling on system calls (§3.2)",
            "multi-port hides most of the stall by interleaving "
            "transfers on the shared link",
        ],
    )


def ablation_gather(cfg: SimConfig | None = None) -> TableResult:
    """Locality win: gather/scatter cost vs direct routing alone."""
    cfg = cfg or paper_testbed()
    rows = []
    for nclient, nserver in ((2, 2), (4, 4), (4, 8)):
        ct = simulate_centralized(cfg, nclient, nserver, PAPER_SEQUENCE_BYTES)
        mp = simulate_multiport(cfg, nclient, nserver, PAPER_SEQUENCE_BYTES)
        staging = ct.t_gather + ct.t_scatter
        rows.append(
            [
                f"{nclient}x{nserver}",
                _ms(staging),
                _ms(ct.t_inv),
                _ms(mp.t_inv),
                _ms(ct.t_inv - mp.t_inv),
                f"{staging / (ct.t_inv - mp.t_inv) * 100:.0f}%",
            ]
        )
    return TableResult(
        title="Ablation — staging (gather+scatter) share of the win (ms)",
        headers=[
            "cfg", "gather+scatter", "cent T", "multi T",
            "total win", "staging share",
        ],
        rows=rows,
        notes=[
            "the rest of the win comes from parallel marshaling and "
            "better link utilization",
        ],
    )


def concurrent_clients(cfg: SimConfig | None = None) -> TableResult:
    """Several client applications contending for one SPMD object."""
    cfg = cfg or paper_testbed()
    rows = []
    for k in (1, 2, 4, 8):
        ct = simulate_concurrent(
            cfg, "centralized", k, 4, 8, PAPER_SEQUENCE_BYTES
        )
        mp = simulate_concurrent(
            cfg, "multiport", k, 4, 8, PAPER_SEQUENCE_BYTES
        )
        rows.append(
            [
                str(k),
                _ms(ct.makespan),
                f"{ct.aggregate_bandwidth:.1f}",
                f"{ct.link_utilization:.2f}",
                _ms(mp.makespan),
                f"{mp.aggregate_bandwidth:.1f}",
                f"{mp.link_utilization:.2f}",
            ]
        )
    return TableResult(
        title=(
            "Concurrent clients — k parallel apps invoking one object "
            "(client=4, server=8, 2^20 doubles each)"
        ),
        headers=[
            "clients", "cent makespan", "agg MB/s", "util",
            "multi makespan", "agg MB/s", "util",
        ],
        rows=rows,
        notes=[
            "extends the paper: §3.3 motivates the separated header "
            "by contention between invoking clients",
            "multi-port's pipeline saturates the link; centralized is "
            "bound by serialized server-side staging",
        ],
    )


def ablation_header(cfg: SimConfig | None = None) -> TableResult:
    """Cost of the separated invocation header (multi-port design).

    The paper separates invocation from argument transfer to avoid
    contention between invoking clients; this quantifies the price —
    one extra small message — against total invocation time.
    """
    cfg = cfg or paper_testbed()
    rows = []
    for exponent in (2, 4, 6):
        nbytes = 10**exponent * 8
        mp = simulate_multiport(cfg, 4, 8, nbytes)
        header_cost = (
            cfg.pair_stall(4, 8, multiport=True) + cfg.link_latency
        )
        rows.append(
            [
                f"1e{exponent}",
                _ms(mp.t_inv),
                _ms(header_cost),
                f"{header_cost / mp.t_inv * 100:.1f}%",
            ]
        )
    return TableResult(
        title="Ablation — separated-header overhead (multi-port)",
        headers=["doubles", "T_inv", "header cost", "share"],
        rows=rows,
        notes=[
            "the header is piggybacked in the centralized method; "
            "multi-port pays one small extra message to stay safe "
            "under concurrent clients (§3.3)",
        ],
    )
