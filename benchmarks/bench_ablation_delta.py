"""Ablation — the TTL margin δ (§7.1 picks δ = 2).

Sweeps δ for the TTL-dependent TCB Creation + Resync/Desync strategy,
inside and outside China.  Expected shape: tiny δ risks hitting the
server under route drift (Failure 1); large δ undershoots the GFW
(Failure 2); δ = 2 is near the sweet spot inside China, while outside
China (GFW within a few hops of the server) no δ is comfortable — the
paper's stated reason the TTL vehicle struggles there."""

from conftest import bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    OUTSIDE_VANTAGE_POINTS,
    Outcome,
    inside_china_catalog,
    outside_china_catalog,
)
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.runner import run_http_outcomes
from repro.experiments.tables import render_table

STRATEGY = "tcb-creation+resync-desync"


def _sweep(vantages, sites, deltas, seed=13):
    rows = []
    for delta in deltas:
        calibration = DEFAULT_CALIBRATION.variant(hop_delta=delta)
        tasks = [
            (vantage, website, STRATEGY, calibration,
             seed + v_index * 1009 + w_index * 17 + delta * 131, True)
            for v_index, vantage in enumerate(vantages)
            for w_index, website in enumerate(sites)
        ]
        triple = VerdictDistribution.from_outcomes(run_http_outcomes(tasks))
        s, f1, f2 = triple.as_percentages()
        rows.append([f"delta={delta}", f"{s:.1f}%", f"{f1:.1f}%", f"{f2:.1f}%"])
    return rows


def delta_sweep(sites_count: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    cn_sites = inside_china_catalog(count=max(8, sites_count // 2))
    inside = _sweep(CHINA_VANTAGE_POINTS[:6], sites, deltas=(0, 1, 2, 4, 6))
    outside = _sweep(OUTSIDE_VANTAGE_POINTS, cn_sites, deltas=(0, 1, 2, 4, 6))
    text = render_table(
        ["delta", "Success", "Failure 1", "Failure 2"], inside,
        title=f"delta sweep, inside China ({STRATEGY})",
    )
    text += "\n\n" + render_table(
        ["delta", "Success", "Failure 1", "Failure 2"], outside,
        title="delta sweep, outside China (GFW near the server)",
    )
    return text


def test_ablation_delta():
    text = delta_sweep(bench_sites(10, 30))
    report("ablation_delta", text)
    assert "delta=2" in text
