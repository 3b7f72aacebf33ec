"""The ablations, the baselines and the fleet curve: producers (tallies
or counts per sweep point) and formatters (records -> the text
``benchmarks/results/<id>.txt`` holds), registered in
:mod:`repro.experiments.artifacts`."""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Tuple

from repro.core.framework import InterceptionFramework
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.fleet import FleetResult, FleetSpec, effectiveness_curve
from repro.experiments.lab import fetch, lab_trial, mini_topology
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.parallel import map_trials
from repro.experiments.runner import (
    run_cell_by_provider,
    run_http_outcomes,
    run_strategy_cell,
)
from repro.experiments.tables import format_rate_line, render_table
from repro.experiments.vantage import CHINA_VANTAGE_POINTS, OUTSIDE_VANTAGE_POINTS
from repro.experiments.websites import inside_china_catalog, outside_china_catalog
from repro.gfw import evolved_config
from repro.strategies.improved import ImprovedTCBTeardown


def _success(tally: VerdictDistribution) -> str:
    return f"{tally.as_percentages()[0]:.0f}%"


def _sweep_cell(strategy, calibration, vantages, catalog, seed_of):
    """The tally of one keyword trial per (vantage, site), seeded
    ``seed_of(v, w)`` by their indices."""
    return VerdictDistribution.from_outcomes(run_http_outcomes([
        (vantage, website, strategy, calibration, seed_of(v_index, w_index), True)
        for v_index, vantage in enumerate(vantages)
        for w_index, website in enumerate(catalog)
    ]))


DELTA_STRATEGY = "tcb-creation+resync-desync"
DELTAS = (0, 1, 2, 4, 6)


def _delta_points(vantages, sites) -> List[Tuple[int, VerdictDistribution]]:
    return [
        (delta, _sweep_cell(
            DELTA_STRATEGY, DEFAULT_CALIBRATION.variant(hop_delta=delta),
            vantages, sites, lambda v, w: 13 + v * 1009 + w * 17 + delta * 131,
        ))
        for delta in DELTAS
    ]


def delta_sweep(sites: int) -> Dict:
    """δ for the TTL-dependent TCB Creation + Resync/Desync, inside and
    outside China: a tiny δ hits the server under route drift (Failure
    1), a large one undershoots the GFW (Failure 2); δ = 2 is near the
    sweet spot inside China, while outside China, with the GFW a few
    hops from the server, no δ is comfortable."""
    return {
        "inside": _delta_points(
            CHINA_VANTAGE_POINTS[:6], outside_china_catalog(count=sites)
        ),
        "outside": _delta_points(
            OUTSIDE_VANTAGE_POINTS, inside_china_catalog(count=max(8, sites // 2))
        ),
    }


def format_delta_sweep(records: Dict) -> str:
    tables = []
    for half, title in (
        ("inside", f"delta sweep, inside China ({DELTA_STRATEGY})"),
        ("outside", "delta sweep, outside China (GFW near the server)"),
    ):
        rows = [
            [f"delta={delta}"] + [f"{rate:.1f}%" for rate in tally.as_percentages()]
            for delta, tally in records[half]
        ]
        tables.append(render_table(
            ["delta", "Success", "Failure 1", "Failure 2"], rows, title=title,
        ))
    return "\n\n".join(tables)


REDUNDANCY_LOSS_RATE = 0.30
REDUNDANCY_TRIALS = 40
REDUNDANCY_COPIES = (1, 2, 3, 5)


def _redundancy_trial(copies: int, seed: int) -> bool:
    """Process-pool work unit: one lossy-path fetch, True when evaded."""
    world = mini_topology(seed=seed, loss_rate=REDUNDANCY_LOSS_RATE)

    def factory(ctx):
        return ImprovedTCBTeardown(ctx, copies=copies)

    InterceptionFramework(
        host=world.client, clock=world.clock,
        rng=random.Random(seed), strategy_factory=factory,
    )
    exchange = fetch(world, duration=18.0)
    return exchange.got_response and not world.gfw_resets_at_client


def redundancy_sweep() -> List[Tuple[int, int]]:
    """Evasions of the improved TCB teardown (MD5 vehicle) per insertion
    copy count, under elevated loss: one copy loses the teardown RST to
    the network often enough to matter; three all but never do."""
    return [
        (copies, sum(map_trials(_redundancy_trial, [
            (copies, seed) for seed in range(REDUNDANCY_TRIALS)
        ])))
        for copies in REDUNDANCY_COPIES
    ]


def format_redundancy_sweep(records: List[Tuple[int, int]]) -> str:
    text = render_table(
        ["insertion copies", "evasion success"],
        [[str(copies), f"{evaded / REDUNDANCY_TRIALS * 100:.0f}%"]
         for copies, evaded in records],
        title=f"Redundancy sweep at {REDUNDANCY_LOSS_RATE:.0%} per-traversal loss "
              f"({REDUNDANCY_TRIALS} trials each)",
    )
    return text + "\n\nPaper practice: thrice, 20 ms apart (§3.4)."


MIXTURES = (
    ("all evolved", dict(old_model_only_fraction=0.0, both_models_fraction=0.0)),
    ("70/30 evolved/both", dict(old_model_only_fraction=0.0, both_models_fraction=0.3)),
    ("mixed (default-ish)", dict(old_model_only_fraction=0.1, both_models_fraction=0.3)),
    ("mostly old", dict(old_model_only_fraction=0.7, both_models_fraction=0.3)),
    ("all old", dict(old_model_only_fraction=1.0, both_models_fraction=0.0)),
)
MIXTURE_STRATEGIES = ("tcb-reversal", "tcb-creation-syn/ttl", "tcb-teardown+tcb-reversal")


def mixture_sweep(sites: int) -> List[Tuple[str, List[VerdictDistribution]]]:
    """Generation-specific strategies against the Fig. 4 combination as
    the old/evolved composition of paths moves: TCB Reversal collapses as
    old-model devices appear, TCB creation as evolved ones do, and the
    combination stays near 100 % throughout."""
    catalog = outside_china_catalog(count=sites)
    vantages = CHINA_VANTAGE_POINTS[:5]
    records = []
    for label, tweaks in MIXTURES:
        calibration = DEFAULT_CALIBRATION.variant(
            gfw_miss_probability=0.0, **tweaks
        )
        # Stable cell seeds (hash() is salted per interpreter run).
        records.append((label, [
            _sweep_cell(
                strategy, calibration, vantages, catalog,
                lambda v, w: zlib.crc32(
                    f"{label}|{strategy}|{v}|{w}".encode()) & 0xFFFF,
            )
            for strategy in MIXTURE_STRATEGIES
        ]))
    return records


def format_mixture_sweep(records) -> str:
    return render_table(
        ["GFW population"] + list(MIXTURE_STRATEGIES),
        [[label] + [_success(t) for t in tallies] for label, tallies in records],
        title="Success rate vs GFW generation mixture",
    )


RESYNC_PROBABILITIES = (0.0, 0.2, 0.5, 0.8, 1.0)
RESYNC_STRATEGIES = ("tcb-teardown-rst/ttl", "improved-tcb-teardown")


def resync_sweep(sites: int = 10) -> List[Tuple[float, List[VerdictDistribution]]]:
    """Plain RST teardown against the desync-hardened improved variant as
    the evolved device's resync-instead-of-teardown coin biases: plain
    teardown falls toward 0 % (§4's ~80 % success puts the coin near
    0.2); the desynchronization packet keeps the improved variant flat."""
    catalog = outside_china_catalog(count=sites)
    vantages = CHINA_VANTAGE_POINTS[:5]
    records = []
    for probability in RESYNC_PROBABILITIES:
        calibration = DEFAULT_CALIBRATION.variant(
            resync_on_rst_probability=probability,
            gfw_miss_probability=0.0,
            old_model_only_fraction=0.0,
            both_models_fraction=0.0,
        )
        records.append((probability, [
            _sweep_cell(
                strategy, calibration, vantages, catalog,
                lambda v, w: (v * 7919 + w * 31 + int(probability * 10) * 3) & 0xFFFF,
            )
            for strategy in RESYNC_STRATEGIES
        ]))
    return records


def format_resync_sweep(records) -> str:
    text = render_table(
        ["NB3 coin"] + list(RESYNC_STRATEGIES),
        [[f"P(resync)={probability:.1f}"] + [_success(t) for t in tallies]
         for probability, tallies in records],
        title="RST teardown vs the resynchronization state",
    )
    return text + (
        "\n\n§4 measured ~80% teardown success, i.e. P(resync) ≈ 0.2; the "
        "desync packet\nmakes the improved strategy insensitive to the coin."
    )


HARDENINGS = (
    ("baseline (no validation)", {}),
    ("+ checksum validation", {"validates_checksum": True}),
    ("+ MD5-option rejection", {"validates_checksum": True,
                                 "drops_unsolicited_md5": True}),
    ("+ ACK-number validation", {"validates_checksum": True,
                                  "drops_unsolicited_md5": True,
                                  "validates_ack_number": True}),
)
COUNTERMEASURE_STRATEGIES = (
    "inorder-overlap/bad-checksum",
    "improved-tcb-teardown",
    "inorder-overlap/bad-ack",
    "tcb-creation+resync-desync",
)
COUNTERMEASURE_TRIALS = 12


def _countermeasure_trial(tweaks: Dict, strategy: str, seed: int) -> bool:
    """Process-pool work unit: one hardened-GFW fetch, True when evaded."""
    world, exchange = lab_trial(
        strategy, seed, seed + 3, gfw_config=evolved_config(**tweaks)
    )
    return exchange.got_response and not world.gfw.detections


def countermeasure_sweep() -> List[Tuple[str, List[int]]]:
    """Evasions per strategy as the GFW turns on, one by one, the
    validations §8 expects of it ("the censor may perform additional
    checks on the RST packets (e.g., checksum and MD5 option fields)")."""
    return [
        (label, [
            sum(map_trials(_countermeasure_trial, [
                (dict(tweaks), strategy, seed)
                for seed in range(COUNTERMEASURE_TRIALS)
            ]))
            for strategy in COUNTERMEASURE_STRATEGIES
        ])
        for label, tweaks in HARDENINGS
    ]


def format_countermeasure_sweep(records) -> str:
    text = render_table(
        ["GFW hardening"] + list(COUNTERMEASURE_STRATEGIES),
        [[label] + [f"{n * 100 // COUNTERMEASURE_TRIALS}%" for n in evaded]
         for label, evaded in records],
        title="§8 countermeasures: evasion success as the GFW hardens",
    )
    return text + (
        "\n\nThe TTL-based combination (tcb-creation+resync-desync) is "
        "untouched by header\nvalidation — §8's point that each defence "
        "closes one vehicle while others remain,\nand new checks (e.g. "
        "validating MD5 fields the server ignores) cut both ways."
    )


def west_chamber_baseline(sites: int) -> Dict:
    """The 2010 tool's RST+FIN teardown under the default environment,
    beside the Fig. 4 combination, and against an all-old-model GFW (the
    tool used to work): "none of the strategies were found to be
    effective during our measurement study"."""
    catalog = outside_china_catalog(count=sites)
    modern = [
        (strategy, run_strategy_cell(
            strategy, CHINA_VANTAGE_POINTS, catalog, DEFAULT_CALIBRATION, seed=9,
        ))
        for strategy in ("west-chamber", "tcb-teardown+tcb-reversal")
    ]
    ancient = DEFAULT_CALIBRATION.variant(
        old_model_only_fraction=1.0, both_models_fraction=0.0,
    )
    return {
        "modern": modern,
        "ancient": run_strategy_cell(
            "west-chamber", CHINA_VANTAGE_POINTS, catalog, ancient, seed=9,
        ),
    }


def format_west_chamber_baseline(records: Dict) -> str:
    lines = ["West Chamber Project vs today's GFW (default environment):"]
    lines.extend(
        "  " + format_rate_line(strategy, tally)
        for strategy, tally in records["modern"]
    )
    lines.append("\nAgainst a 2010-era (all old-model) GFW population:")
    lines.append("  " + format_rate_line("west-chamber", records["ancient"]))
    lines.append(
        "\nThe tool's recipe still beats the censor it was written for; "
        "the censor moved (§4)."
    )
    return "\n".join(lines)


PROVIDER_STRATEGIES = (
    ("inorder-overlap/bad-checksum", "dies only behind Tianjin's sanitizer"),
    ("inorder-overlap/no-flag", "Tianjin + no-flag-ignoring GFW instances"),
    ("ooo-ip-fragments", "F1 at Aliyun (discard), F2 elsewhere (reassembly)"),
    ("tcb-teardown-fin/ttl", "FIN eaten by Aliyun/Unicom + ignored by evolved GFW"),
    ("improved-tcb-teardown", "MD5 vehicle: provider-independent"),
)
PROVIDERS = ("aliyun", "qcloud", "unicom-sjz", "unicom-tj")


def provider_breakdown(sites: int) -> List[Tuple[str, Dict[str, VerdictDistribution]]]:
    """The most middlebox-sensitive Table 1 rows per provider, making
    the paper's attributions ("the vantage point in Tianjin China Unicom
    has client-side middleboxes that drop packets with wrong TCP
    checksums…") visible as columns."""
    catalog = outside_china_catalog(count=sites)
    return [
        (strategy_id, run_cell_by_provider(
            strategy_id, CHINA_VANTAGE_POINTS, catalog, seed=5
        ))
        for strategy_id, _note in PROVIDER_STRATEGIES
    ]


def format_provider_breakdown(records) -> str:
    rows = [
        [strategy_id] + [
            "{:.0f}/{:.0f}/{:.0f}".format(*rates[provider].as_percentages())
            for provider in PROVIDERS
        ]
        for strategy_id, rates in records
    ]
    text = render_table(
        ["Strategy (S/F1/F2 %)"] + list(PROVIDERS), rows,
        title="Per-provider breakdown of middlebox-sensitive strategies",
    )
    text += "\n"
    for strategy_id, note in PROVIDER_STRATEGIES:
        text += f"\n  {strategy_id}: {note}"
    return text


#: The shared flow table's capacity (``GFWConfig.max_flows``, scaled down
#: from 4096 so the sweep spans it in CI time) and the fleet sizes below
#: and above it.  ``repro fleet run --curve`` sweeps other sizes.
CURVE_MAX_FLOWS = 512
CURVE_SIZES = (256, 1024, 4096)


def fleet_curve() -> List[Tuple[int, FleetResult]]:
    """The Table-1 strategy pool through one shared GFW as the fleet
    outgrows its flow table (the window is the table size, so flows race
    for slots): blacklist contention and LRU eviction both move the
    rates, the measurement the paper could not take on the live GFW."""
    return effectiveness_curve(
        FleetSpec(flows=CURVE_SIZES[0], groups=1, window=CURVE_MAX_FLOWS,
                  max_flows=CURVE_MAX_FLOWS),
        CURVE_SIZES,
    )


def format_fleet_curve(records: List[Tuple[int, FleetResult]]) -> str:
    lines = [
        "Strategy effectiveness vs. GFW load (shared flow table, "
        f"capacity {CURVE_MAX_FLOWS})",
        "  extension measurement: eviction/blacklist coupling is not a "
        "paper result",
    ]
    labels = sorted(records[0][1].strategy_rates())
    for size, result in records:
        rates = result.strategy_rates()
        lines.append(
            f"  {size:>6} flows: "
            f"evict(active/fin)={result.flows_evicted_active}/"
            f"{result.flows_evicted_after_fin} "
            f"evictFN={result.eviction_false_negatives} "
            f"blacklistFP={result.blacklist_false_positives} "
            f"benign={result.success_rate('benign'):.0%}"
        )
        lines.extend(
            f"      {label:<36} {rates[label]:7.1%}"
            for label in labels if label in rates
        )
    return "\n".join(lines)
