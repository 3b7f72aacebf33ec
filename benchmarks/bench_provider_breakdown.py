"""Supplement — Table 1 rates broken down by provider (§3.4's analysis).

The paper attributes specific failure columns to specific provider
equipment ("the vantage point in Tianjin China Unicom has client-side
middleboxes that drop packets with wrong TCP checksums…").  This bench
makes those attributions visible as per-provider rate columns for the
most middlebox-sensitive strategies."""

from conftest import bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
    run_cell_by_provider,
)
from repro.experiments.tables import render_table

STRATEGIES = (
    ("inorder-overlap/bad-checksum", "dies only behind Tianjin's sanitizer"),
    ("inorder-overlap/no-flag", "Tianjin + no-flag-ignoring GFW instances"),
    ("ooo-ip-fragments", "F1 at Aliyun (discard), F2 elsewhere (reassembly)"),
    ("tcb-teardown-fin/ttl", "FIN eaten by Aliyun/Unicom + ignored by evolved GFW"),
    ("improved-tcb-teardown", "MD5 vehicle: provider-independent"),
)
PROVIDERS = ("aliyun", "qcloud", "unicom-sjz", "unicom-tj")


def provider_breakdown(sites_count: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    rows = []
    for strategy_id, note in STRATEGIES:
        rates = run_cell_by_provider(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            seed=5,
        )
        cells = [strategy_id]
        for provider in PROVIDERS:
            triple = rates[provider]
            s, f1, f2 = triple.as_percentages()
            cells.append(f"{s:.0f}/{f1:.0f}/{f2:.0f}")
        rows.append(cells)
    text = render_table(
        ["Strategy (S/F1/F2 %)"] + list(PROVIDERS), rows,
        title="Per-provider breakdown of middlebox-sensitive strategies",
    )
    text += "\n"
    for strategy_id, note in STRATEGIES:
        text += f"\n  {strategy_id}: {note}"
    return text


def test_provider_breakdown():
    text = provider_breakdown(bench_sites(12, 40))
    report("provider_breakdown", text)
    lines = [line for line in text.splitlines() if line.startswith("inorder-overlap/bad-checksum")]
    cells = [cell.strip() for cell in lines[0].split("|")]
    aliyun_success = float(cells[1].split("/")[0])
    tianjin_success = float(cells[4].split("/")[0])
    assert aliyun_success > 80
    assert tianjin_success < 30  # the Tianjin sanitizer signature
