"""Every results file as one registry: one producer per table, figure
and ablation.

Each :class:`Artifact` names a producer (size options -> records) and
a formatter (records -> the text ``benchmarks/results/<id>.txt`` holds)
and carries the paper's values.  ``repro <id>`` and
``benchmarks/bench_<id>.py`` are both thin calls into :data:`ARTIFACTS`,
so the command line and the committed file cannot drift apart, and
every paper number is defined once, here.  The producers live where
they run: the tables in :mod:`repro.experiments.paper_tables`, the
figures and the §2.1/§7.3 observations in
:mod:`repro.experiments.figures`, the ablations, baselines and the
fleet curve in :mod:`repro.experiments.ablations`.  An artifact imports
its module when it is produced or printed, so ``repro list`` and the
command-line parser load no producer.

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
from importlib import import_module
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = ["ARTIFACTS", "Artifact", "records_json"]


@dataclass(frozen=True)
class Artifact:
    """One results file: how to produce it, print it, and what the paper
    reported."""

    id: str
    title: str
    #: The module under ``repro.experiments`` that produces and prints it.
    module: str
    #: Its producer's name there: ``producer(**options) -> records``.
    producer_name: str
    #: Its formatter's name there: ``formatter(records) -> text``, the
    #: bench's results file verbatim.
    formatter_name: str
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

    def _named(self, name: str) -> Callable:
        return getattr(import_module(f"repro.experiments.{self.module}"), name)

    @property
    def producer(self) -> Callable[..., Any]:
        return self._named(self.producer_name)

    @property
    def formatter(self) -> Callable[[Any], str]:
        return self._named(self.formatter_name)

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

#: Success percentages (except Tianjin, all vantages) from Table 6.
TABLE6_PAPER = {"Dyn 1": (98.6, 92.7), "Dyn 2": (99.6, 93.1)}


#: Every results file, by its ``repro`` command name.
ARTIFACTS: Dict[str, Artifact] = {
    artifact.id: artifact
    for artifact in (
        Artifact(
            "table1", "existing evasion strategies vs the evolved GFW",
            "paper_tables", "table1", "table1_text",
            options={"sites": 15, "repeats": 1, "seed": 7},
            paper=TABLE1_PAPER,
            paper_n={"vantages": 11, "sites": 77, "repeats": 50},
            clustered=True,
        ),
        Artifact(
            "table2", "client-side middlebox behaviours per provider",
            "paper_tables", "table2", "table2_text",
        ),
        Artifact(
            "table3", "candidate insertion packets (ignore-path analysis)",
            "paper_tables", "table3", "table3_text",
        ),
        Artifact(
            "table4", "new strategies and INTANG, inside and outside China",
            "paper_tables", "table4", "table4_text",
            options={"sites": 15, "repeats": 1, "seed": 3},
            paper=TABLE4_PAPER,
            clustered=True,
        ),
        Artifact(
            "table5", "preferred construction of insertion packets",
            "paper_tables", "derive_table5", "table5_text",
        ),
        Artifact(
            "table6", "TCP DNS evasion via the Dyn resolvers",
            "paper_tables", "table6", "table6_text",
            options={"queries": 25},
            paper=TABLE6_PAPER,
            paper_n={"vantages": 11, "queries": 100},
            clustered=True,
        ),
        Artifact("fig1", "the threat model as a live topology",
                 "figures", "threat_model", "format_threat_model"),
        Artifact("fig2", "INTANG's components, one pass each",
                 "figures", "intang_architecture", "format_intang_architecture"),
        Artifact("fig3", "TCB Creation + Resync/Desync packet ladder",
                 "figures", "fig3_ladder", "format_fig3"),
        Artifact("fig4", "TCB Teardown + TCB Reversal packet ladder",
                 "figures", "fig4_ladder", "format_fig4"),
        Artifact("resets", "§2.1 forged-reset signatures and the blocking regime",
                 "figures", "reset_signatures", "format_reset_signatures"),
        Artifact("tor", "§7.3 Tor: active probing and INTANG's cover",
                 "figures", "tor_campaign", "format_tor_campaign"),
        Artifact("vpn", "§7.3 OpenVPN-over-TCP: DPI reset vs INTANG",
                 "figures", "vpn_campaign", "format_vpn_campaign"),
        Artifact("ablation_delta", "ablation: the TTL margin delta (§7.1)",
                 "ablations", "delta_sweep", "format_delta_sweep",
                 options={"sites": 10}),
        Artifact("ablation_redundancy", "ablation: insertion copies vs loss (§3.4)",
                 "ablations", "redundancy_sweep", "format_redundancy_sweep"),
        Artifact("ablation_gfw_mix", "ablation: GFW generation mixture (§7.1)",
                 "ablations", "mixture_sweep", "format_mixture_sweep",
                 options={"sites": 8}),
        Artifact("ablation_resync", "ablation: NB3 resync-on-RST probability (§4)",
                 "ablations", "resync_sweep", "format_resync_sweep"),
        Artifact("ablation_countermeasures", "ablation: §8's GFW hardenings, enacted",
                 "ablations", "countermeasure_sweep", "format_countermeasure_sweep"),
        Artifact("baseline_west_chamber", "the West Chamber Project vs today's GFW",
                 "ablations", "west_chamber_baseline",
                 "format_west_chamber_baseline", options={"sites": 10}),
        Artifact("provider_breakdown", "Table 1's sensitive rows per provider (§3.4)",
                 "ablations", "provider_breakdown", "format_provider_breakdown",
                 options={"sites": 12}),
        Artifact("fleet_effectiveness", "strategy success vs shared-censor load",
                 "ablations", "fleet_curve", "format_fleet_curve"),
    )
}
