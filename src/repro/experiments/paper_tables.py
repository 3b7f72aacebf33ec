"""Tables 1–6: one producer and one formatter per paper table.

The artifact registry (:mod:`repro.experiments.artifacts`) names these
functions and imports this module only when a table is produced or
printed.  Each ``tableN_text`` is the only formatter of its table: it
lays the rows out with :func:`~repro.experiments.tables.render_table`
in the paper's column order and appends the paper comparison.  Tables
1, 4 and 6 are measured over vantages × sites (× resolvers), so their
records keep one tally per cluster, which the formatters sum (DESIGN.md
§4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analysis.discrepancy import (
    cross_validate_stacks,
    derive_table5,
    generate_table3,
)
from repro.experiments.artifacts import TABLE1_PAPER, TABLE4_PAPER, TABLE6_PAPER
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.middlebox_probe import probe_all
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.runner import (
    run_dns_trial,
    run_per_vantage_clusters,
    run_strategy_clusters,
    run_table6_rows,
)
from repro.experiments.tables import pct, render_table
from repro.experiments.vantage import (
    CHINA_VANTAGE_POINTS,
    OUTSIDE_VANTAGE_POINTS,
    VantagePoint,
)
from repro.experiments.websites import (
    OPENDNS_RESOLVERS,
    Website,
    inside_china_catalog,
    outside_china_catalog,
)
from repro.strategies.insertion import Discrepancy, PREFERRED_DISCREPANCIES
from repro.strategies.registry import TABLE1_ROWS, TABLE4_STRATEGIES

__all__ = [
    "derive_table5",
    "table1", "table1_text", "table2", "table2_text", "table3", "table3_text",
    "table4", "table4_text", "table5_text", "table6", "table6_text",
]


def _by_vantage(
    vantages: Sequence[VantagePoint], clusters: List[List[VerdictDistribution]]
) -> Dict[str, List[List[int]]]:
    return {
        vantage.name: [list(tally) for tally in row]
        for vantage, row in zip(vantages, clusters)
    }


def _tally(tallies: Iterable[Sequence[int]]) -> VerdictDistribution:
    return sum(
        (VerdictDistribution(*counts) for counts in tallies), VerdictDistribution()
    )


def _cell(by_vantage: Dict[str, List[List[int]]]) -> VerdictDistribution:
    """A Table 1 cell's tally: the sum of its clusters."""
    return _tally(counts for row in by_vantage.values() for counts in row)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1(sites: int, repeats: int, seed: int) -> Dict:
    """Every row with the keyword (cell seed ``seed``) and without it
    (``seed + 1``), over the 11 in-China vantages."""
    catalog = outside_china_catalog(count=sites)
    rows = []
    for label, strategy_id, discrepancy in TABLE1_ROWS:
        row = {"label": label, "strategy": strategy_id, "discrepancy": discrepancy}
        for key, keyword, cell_seed in (
            ("keyword", True, seed), ("benign", False, seed + 1)
        ):
            row[key] = _by_vantage(CHINA_VANTAGE_POINTS, run_strategy_clusters(
                strategy_id, CHINA_VANTAGE_POINTS, catalog, DEFAULT_CALIBRATION,
                repeats=repeats, seed=cell_seed, keyword=keyword,
            ))
        rows.append(row)
    return {
        "artifact": "table1", "sites": sites, "repeats": repeats, "seed": seed,
        "site_names": [site.name for site in catalog], "rows": rows,
    }


def table1_text(records: Dict) -> str:
    rows = []
    comparison_lines = []
    for row in records["rows"]:
        ours = _cell(row["keyword"]).as_percentages()
        benign = _cell(row["benign"]).as_percentages()
        rows.append([
            row["label"], row["discrepancy"], *map(pct, ours),
            pct(benign[0]), pct(benign[1] + benign[2]),
        ])
        paper = TABLE1_PAPER[row["strategy"]]
        comparison_lines.append(
            f"  {row['label'] + ' [' + row['discrepancy'] + ']':<46} "
            f"ours {ours[0]:5.1f}/{ours[1]:5.1f}/{ours[2]:5.1f}   "
            f"paper {paper[0]:5.1f}/{paper[1]:5.1f}/{paper[2]:5.1f}"
        )
    text = render_table(
        [
            "Strategy", "Discrepancy", "Success", "Failure 1", "Failure 2",
            "Success (benign)", "Failure 1 (benign)",
        ],
        rows, "Table 1: existing evasion strategies",
    )
    text += "\n\nOurs vs paper (Success/Failure1/Failure2, with keyword):\n"
    text += "\n".join(comparison_lines)
    return text


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
def table2() -> List:
    return probe_all(CHINA_VANTAGE_POINTS)


def table2_text(reports: List) -> str:
    return render_table(
        [
            "Vantage point", "IP fragments", "Wrong checksum", "No TCP flag",
            "RST", "FIN",
        ],
        [report.row() for report in reports],
        "Table 2: client-side middlebox behaviors",
    ) + (
        "\n\nPaper (per provider): Aliyun: frags Discarded, FIN sometimes;"
        "\nQCloud: frags Reassembled, RST sometimes; Unicom SJZ: frags"
        " Reassembled, FIN dropped;\nUnicom TJ: frags Reassembled, bad"
        " checksum/no-flag/FIN dropped."
    )


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------
def table3() -> Dict:
    return {"rows": generate_table3(), "divergences": cross_validate_stacks()}


def table3_text(records: Dict) -> str:
    text = render_table(
        ["TCP state", "GFW state", "TCP flags", "Condition"],
        [list(row.as_tuple()) for row in records["rows"]],
        "Table 3: candidate insertion packets",
    )
    table = [
        [d.profile, d.probe, d.state, f"{d.reference_verdict} -> {d.this_verdict}"]
        for d in records["divergences"]
    ]
    text += "\n\n" + render_table(
        ["Stack", "Probe", "State", "Divergence vs linux-4.4"],
        table,
        title="Cross-validation with other TCP stacks (§5.3)",
    )
    return text


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------


def _table4_half(
    rows: Sequence, vantages: Sequence[VantagePoint],
    sites: Sequence[Website], seed: int,
) -> Dict:
    records = []
    for label, strategy_id, repeats in rows:
        if strategy_id is None:  # "INTANG Performance", the adaptive row
            clusters = run_per_vantage_clusters(
                vantages, sites, repeats=repeats, seed=seed,
            )
        else:  # a fixed strategy's row is its Table 1 keyword cell
            clusters = run_strategy_clusters(
                strategy_id, vantages, sites, DEFAULT_CALIBRATION,
                repeats=repeats, seed=seed, keyword=True,
            )
        records.append({
            "label": label, "strategy": strategy_id, "repeats": repeats,
            "clusters": _by_vantage(vantages, clusters),
        })
    return {"site_names": [site.name for site in sites], "rows": records}


def table4(sites: int, repeats: int, seed: int) -> Dict:
    """Inside China: the four strategies plus the adaptive INTANG row
    (strategy ``None``, at least 4 repeats) over the 11 vantages.
    Outside China: the four strategies (at least 3 repeats) over the 4
    outside vantages against a 33/77-sized in-China catalog."""
    inside = [(label, sid, repeats) for label, sid in TABLE4_STRATEGIES]
    inside.append(("INTANG Performance", None, max(4, repeats)))
    outside = [(label, sid, max(3, repeats)) for label, sid in TABLE4_STRATEGIES]
    return {
        "artifact": "table4", "sites": sites, "repeats": repeats, "seed": seed,
        "inside": _table4_half(
            inside, CHINA_VANTAGE_POINTS, outside_china_catalog(count=sites), seed
        ),
        "outside": _table4_half(
            outside, OUTSIDE_VANTAGE_POINTS,
            inside_china_catalog(count=max(10, sites * 33 // 77)), seed,
        ),
    }


def table4_text(records: Dict) -> str:
    def min_max_avg(rates: List[float]) -> List[str]:
        """One rate's three Table 4 cells over a row's vantages."""
        return [
            pct(min(rates) * 100), pct(max(rates) * 100),
            pct(sum(rates) / len(rates) * 100),
        ]

    headers = ["Strategy"] + [
        f"{rate} {stat}"
        for rate in ("Succ", "F1", "F2") for stat in ("min", "max", "avg")
    ]
    halves = []
    for half in ("inside", "outside"):
        rows = []
        for row in records[half]["rows"]:
            per_vantage = [
                _tally(tallies).rates() for tallies in row["clusters"].values()
            ]
            cells = [row["label"]]
            for index in range(3):
                cells += min_max_avg([rates[index] for rates in per_vantage])
            rows.append(cells)
        halves.append(render_table(headers, rows, f"Table 4 ({half} China)"))
    paper = [
        f"Paper averages (S/F1/F2) {half}: "
        + ", ".join(f"{sid}={v}" for sid, v in TABLE4_PAPER[half].items())
        for half in ("inside", "outside")
    ]
    paper.append("Paper INTANG row: {:.1f}/{:.1f}/{:.1f} success.".format(
        *TABLE4_PAPER["intang"]
    ))
    return "\n\n".join(halves) + "\n\n" + "\n".join(paper)


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------
def table5_text(derived: Dict[str, List[str]]) -> str:
    vehicles = ("ttl", "md5", "bad-ack", "old-timestamp")
    text = render_table(
        ["Packet type", "TTL", "MD5", "Bad ACK", "Timestamp"],
        [
            [packet_type] + ["x" if vehicle in chosen else "" for vehicle in vehicles]
            for packet_type, chosen in derived.items()
        ],
        "Table 5: preferred construction of insertion packets",
    )
    static = {
        "SYN": [d.value for d in PREFERRED_DISCREPANCIES["SYN"]],
        "RST": [d.value for d in PREFERRED_DISCREPANCIES["RST"]],
        "Data": [
            "ttl" if d is Discrepancy.LOW_TTL else d.value
            for d in PREFERRED_DISCREPANCIES["DATA"]
        ],
    }
    text += "\n\nStatic preference map used by the strategies: " + repr(static)
    text += "\nDerived and static maps agree: " + str(derived == static)
    return text


# ---------------------------------------------------------------------------
# Table 6
# ---------------------------------------------------------------------------


def table6(queries: int) -> Dict:
    """Both Dyn resolvers from every in-China vantage, plus one OpenDNS
    query without INTANG (§7.2's accidental discovery)."""
    vantage, resolver = CHINA_VANTAGE_POINTS[0], OPENDNS_RESOLVERS[0]
    opendns = run_dns_trial(
        vantage, resolver, calibration=DEFAULT_CALIBRATION, seed=1,
        use_intang=False,
    )
    return {
        "artifact": "table6", "queries": queries,
        "resolvers": [
            {"name": name, "ip": ip, "successes": successes}
            for name, ip, successes in run_table6_rows(queries)
        ],
        "opendns": {
            "vantage": vantage.name, "ip": resolver.ip, "success": opendns.success,
        },
    }


def table6_text(records: Dict) -> str:
    queries = records["queries"]
    rows = []
    for resolver in records["resolvers"]:
        rates = {
            name: count / queries if queries else 0.0
            for name, count in resolver["successes"].items()
        }
        except_tj = [r for name, r in rates.items() if name != "unicom-tianjin"]
        rows.append([
            resolver["name"], resolver["ip"],
            pct(sum(except_tj) / len(except_tj) * 100),
            pct(sum(rates.values()) / len(rates) * 100),
        ])
    opendns = records["opendns"]
    text = render_table(
        ["DNS resolver", "IP", "except Tianjin", "All"], rows,
        "Table 6: TCP DNS censorship evasion",
    )
    text += (
        f"\n\nOpenDNS {opendns['ip']} without INTANG: "
        f"{'uncensored (success)' if opendns['success'] else 'censored'}"
        " — reproducing §7.2's accidental discovery."
    )
    text += "\nPaper: " + ", ".join(
        f"{name.replace(' ', '')} {except_tj}%/{every}%"
        for name, (except_tj, every) in TABLE6_PAPER.items()
    ) + " (except-TJ / all)."
    return text
