"""Every results file as one registry: one producer per table, figure
and ablation.

Each :class:`Artifact` pairs a producer (size options -> records) with
a formatter (records -> the text ``benchmarks/results/<id>.txt`` holds)
and the paper's values.  ``repro <id>`` and ``benchmarks/bench_<id>.py``
are both thin calls into :data:`ARTIFACTS`, so the command line and the
committed file cannot drift apart, and every paper number is defined
once.  The tables are produced here; the figures and the §2.1/§7.3
observations in :mod:`repro.experiments.figures`, the ablations,
baselines and the fleet curve in :mod:`repro.experiments.ablations`.

Tables 1, 4 and 6 are measured over vantages × sites (× resolvers), not
over independent trials, and routes disagree (Ensafi et al., PAPERS.md).
Their records therefore keep one tally per cluster, which the formatter
sums: Table 1 a ``[success, failure1, failure2]`` count per (vantage,
site) of each row and keyword setting, Table 4 the same per (vantage,
site) of each row, Table 6 a success count per (resolver, vantage).
Those records are plain JSON values; :func:`records_json` is the one
serialization (``benchmarks/results/table{1,4,6}.json``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.analysis import cross_validate_stacks, derive_table5, generate_table3
from repro.experiments import ablations, figures
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.middlebox_probe import probe_all
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.runner import (
    PerVantageRates,
    run_dns_trial,
    run_per_vantage_clusters,
    run_strategy_clusters,
    run_table6_rows,
)
from repro.experiments.tables import (
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    format_table6,
    render_table,
)
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

__all__ = ["ARTIFACTS", "Artifact", "records_json"]


@dataclass(frozen=True)
class Artifact:
    """One results file: how to produce it, print it, and what the paper
    reported."""

    id: str
    title: str
    #: ``producer(**options) -> records``.
    producer: Callable[..., Any]
    #: ``formatter(records) -> text``, the bench's results file verbatim.
    formatter: Callable[[Any], str]
    #: The size options and their bench defaults (``sites``, ``repeats``
    #: and ``seed``; ``queries``): each is a ``repro <id>`` flag.  Only
    #: the paper tables and the site-sized ablations have any.
    options: Mapping[str, int] = field(default_factory=dict)
    #: The paper's values, as the formatter quotes them.
    paper: Mapping[str, Any] = field(default_factory=dict)
    #: The paper's sample size in the options' terms, where DESIGN.md §4
    #: states it; ``None`` where no source does.
    paper_n: Optional[Mapping[str, int]] = None
    #: Whether the records are per-cluster tallies (JSON values).
    clustered: bool = False

    def produce(self, **options: int) -> Any:
        """The records at the default options, overridden by ``options``."""
        return self.producer(**{**self.options, **options})


def records_json(records: Dict) -> str:
    """A clustered artifact's records as deterministic JSON: one key per
    line, each list of tallies on one line."""
    text = json.dumps(records, indent=1)
    return re.sub(
        r"\[[\d,\s\[\]]*\]", lambda match: re.sub(r"\s", "", match.group()), text
    ) + "\n"


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
#: (success, failure1, failure2) percentages from the paper's Table 1.
TABLE1_PAPER = {
    "none": (2.8, 0.4, 96.8),
    "tcb-creation-syn/ttl": (6.9, 4.2, 88.9),
    "tcb-creation-syn/bad-checksum": (6.2, 5.1, 88.7),
    "ooo-ip-fragments": (1.6, 54.8, 43.6),
    "ooo-tcp-segments": (30.8, 6.5, 62.6),
    "inorder-overlap/ttl": (90.6, 5.7, 3.7),
    "inorder-overlap/bad-ack": (83.1, 7.5, 9.5),
    "inorder-overlap/bad-checksum": (87.2, 1.9, 10.8),
    "inorder-overlap/no-flag": (48.3, 3.3, 48.4),
    "tcb-teardown-rst/ttl": (73.2, 3.2, 23.6),
    "tcb-teardown-rst/bad-checksum": (63.1, 7.6, 29.3),
    "tcb-teardown-rstack/ttl": (73.1, 3.2, 23.7),
    "tcb-teardown-rstack/bad-checksum": (68.9, 1.9, 29.2),
    "tcb-teardown-fin/ttl": (11.1, 1.0, 87.9),
    "tcb-teardown-fin/bad-checksum": (8.4, 0.8, 90.7),
}


def _table1(sites: int, repeats: int, seed: int) -> Dict:
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


def _format_table1(records: Dict) -> str:
    results = []
    comparison_lines = []
    for row in records["rows"]:
        with_kw = _cell(row["keyword"])
        results.append(
            (row["label"], row["discrepancy"], with_kw, _cell(row["benign"]))
        )
        ours = with_kw.as_percentages()
        paper = TABLE1_PAPER[row["strategy"]]
        comparison_lines.append(
            f"  {row['label'] + ' [' + row['discrepancy'] + ']':<46} "
            f"ours {ours[0]:5.1f}/{ours[1]:5.1f}/{ours[2]:5.1f}   "
            f"paper {paper[0]:5.1f}/{paper[1]:5.1f}/{paper[2]:5.1f}"
        )
    text = format_table1(results)
    text += "\n\nOurs vs paper (Success/Failure1/Failure2, with keyword):\n"
    text += "\n".join(comparison_lines)
    return text


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
def _format_table2(reports: List) -> str:
    return format_table2(reports) + (
        "\n\nPaper (per provider): Aliyun: frags Discarded, FIN sometimes;"
        "\nQCloud: frags Reassembled, RST sometimes; Unicom SJZ: frags"
        " Reassembled, FIN dropped;\nUnicom TJ: frags Reassembled, bad"
        " checksum/no-flag/FIN dropped."
    )


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------
def _table3() -> Dict:
    return {"rows": generate_table3(), "divergences": cross_validate_stacks()}


def _format_table3(records: Dict) -> str:
    text = format_table3([row.as_tuple() for row in records["rows"]])
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
#: (success, failure1, failure2) averages from the paper's Table 4, and
#: the INTANG row's success min/max/avg.
TABLE4_PAPER = {
    "inside": {
        "improved-tcb-teardown": (95.8, 3.1, 1.1),
        "improved-inorder-overlap": (94.5, 4.4, 1.1),
        "tcb-creation+resync-desync": (95.6, 3.3, 1.1),
        "tcb-teardown+tcb-reversal": (96.2, 2.6, 1.1),
    },
    "outside": {
        "improved-tcb-teardown": (89.8, 6.8, 3.5),
        "improved-inorder-overlap": (92.7, 3.6, 3.7),
        "tcb-creation+resync-desync": (84.6, 12.9, 2.6),
        "tcb-teardown+tcb-reversal": (89.5, 7.1, 3.3),
    },
    "intang": (93.7, 100.0, 98.3),
}


def _table4_half(
    rows: Sequence, vantages: Sequence[VantagePoint],
    sites: Sequence[Website], seed: int,
) -> Dict:
    records = []
    for label, strategy_id, repeats in rows:
        if strategy_id is None:  # "INTANG Performance", the adaptive row
            clusters = run_per_vantage_clusters(
                vantages, sites, DEFAULT_CALIBRATION, repeats=repeats, seed=seed,
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


def _table4(sites: int, repeats: int, seed: int) -> Dict:
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


def _format_table4(records: Dict) -> str:
    halves = []
    for half in ("inside", "outside"):
        rows = [
            (row["label"], PerVantageRates({
                name: _tally(tallies) for name, tallies in row["clusters"].items()
            }))
            for row in records[half]["rows"]
        ]
        halves.append(format_table4(rows, title=f"Table 4 ({half} China)"))
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
def _format_table5(derived: Dict[str, List[str]]) -> str:
    text = format_table5(derived)
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
#: Success percentages (except Tianjin, all vantages) from Table 6.
TABLE6_PAPER = {"Dyn 1": (98.6, 92.7), "Dyn 2": (99.6, 93.1)}


def _table6(queries: int) -> Dict:
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


def _format_table6(records: Dict) -> str:
    queries = records["queries"]
    rows = []
    for resolver in records["resolvers"]:
        rates = {
            name: count / queries if queries else 0.0
            for name, count in resolver["successes"].items()
        }
        except_tj = [r for name, r in rates.items() if name != "unicom-tianjin"]
        rows.append((
            resolver["name"], resolver["ip"],
            sum(except_tj) / len(except_tj), sum(rates.values()) / len(rates),
        ))
    opendns = records["opendns"]
    text = format_table6(rows)
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


#: Every results file, by its ``repro`` command name.
ARTIFACTS: Dict[str, Artifact] = {
    artifact.id: artifact
    for artifact in (
        Artifact(
            "table1", "existing evasion strategies vs the evolved GFW",
            _table1, _format_table1,
            options={"sites": 15, "repeats": 1, "seed": 7},
            paper=TABLE1_PAPER,
            paper_n={"vantages": 11, "sites": 77, "repeats": 50},
            clustered=True,
        ),
        Artifact(
            "table2", "client-side middlebox behaviours per provider",
            lambda: probe_all(CHINA_VANTAGE_POINTS), _format_table2,
        ),
        Artifact(
            "table3", "candidate insertion packets (ignore-path analysis)",
            _table3, _format_table3,
        ),
        Artifact(
            "table4", "new strategies and INTANG, inside and outside China",
            _table4, _format_table4,
            options={"sites": 15, "repeats": 1, "seed": 3},
            paper=TABLE4_PAPER,
            clustered=True,
        ),
        Artifact(
            "table5", "preferred construction of insertion packets",
            derive_table5, _format_table5,
        ),
        Artifact(
            "table6", "TCP DNS evasion via the Dyn resolvers",
            _table6, _format_table6,
            options={"queries": 25},
            paper=TABLE6_PAPER,
            paper_n={"vantages": 11, "queries": 100},
            clustered=True,
        ),
        Artifact("fig1", "the threat model as a live topology",
                 figures.threat_model, figures.format_threat_model),
        Artifact("fig2", "INTANG's components, one pass each",
                 figures.intang_architecture, figures.format_intang_architecture),
        Artifact("fig3", "TCB Creation + Resync/Desync packet ladder",
                 figures.fig3_ladder, figures.format_fig3),
        Artifact("fig4", "TCB Teardown + TCB Reversal packet ladder",
                 figures.fig4_ladder, figures.format_fig4),
        Artifact("resets", "§2.1 forged-reset signatures and the blocking regime",
                 figures.reset_signatures, figures.format_reset_signatures),
        Artifact("tor", "§7.3 Tor: active probing and INTANG's cover",
                 figures.tor_campaign, figures.format_tor_campaign),
        Artifact("vpn", "§7.3 OpenVPN-over-TCP: DPI reset vs INTANG",
                 figures.vpn_campaign, figures.format_vpn_campaign),
        Artifact("ablation_delta", "ablation: the TTL margin delta (§7.1)",
                 ablations.delta_sweep, ablations.format_delta_sweep,
                 options={"sites": 10}),
        Artifact("ablation_redundancy", "ablation: insertion copies vs loss (§3.4)",
                 ablations.redundancy_sweep, ablations.format_redundancy_sweep),
        Artifact("ablation_gfw_mix", "ablation: GFW generation mixture (§7.1)",
                 ablations.mixture_sweep, ablations.format_mixture_sweep,
                 options={"sites": 8}),
        Artifact("ablation_resync", "ablation: NB3 resync-on-RST probability (§4)",
                 ablations.resync_sweep, ablations.format_resync_sweep),
        Artifact("ablation_countermeasures", "ablation: §8's GFW hardenings, enacted",
                 ablations.countermeasure_sweep, ablations.format_countermeasure_sweep),
        Artifact("baseline_west_chamber", "the West Chamber Project vs today's GFW",
                 ablations.west_chamber_baseline,
                 ablations.format_west_chamber_baseline, options={"sites": 10}),
        Artifact("provider_breakdown", "Table 1's sensitive rows per provider (§3.4)",
                 ablations.provider_breakdown, ablations.format_provider_breakdown,
                 options={"sites": 12}),
        Artifact("fleet_effectiveness", "strategy success vs shared-censor load",
                 ablations.fleet_curve, ablations.format_fleet_curve),
    )
}
