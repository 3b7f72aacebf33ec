"""Table 4 — new/improved strategies plus the INTANG row, both directions.

Shape to check: all four strategies ≈ 90 %+ success inside China with
~1 % Failure 2; outside China a few points lower with TCB Creation +
Resync/Desync worst on Failure 1 (TTL-only SYN insertions near a
co-located GFW/server, §7.1); the adaptive INTANG row beats every fixed
strategy."""

from conftest import bench_repeats, bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    OUTSIDE_VANTAGE_POINTS,
    inside_china_catalog,
    outside_china_catalog,
    run_per_vantage,
)
from repro.experiments.tables import format_table4
from repro.strategies.registry import TABLE4_STRATEGIES

PAPER_INSIDE = {
    "improved-tcb-teardown": (95.8, 3.1, 1.1),
    "improved-inorder-overlap": (94.5, 4.4, 1.1),
    "tcb-creation+resync-desync": (95.6, 3.3, 1.1),
    "tcb-teardown+tcb-reversal": (96.2, 2.6, 1.1),
}
PAPER_OUTSIDE = {
    "improved-tcb-teardown": (89.8, 6.8, 3.5),
    "improved-inorder-overlap": (92.7, 3.6, 3.7),
    "tcb-creation+resync-desync": (84.6, 12.9, 2.6),
    "tcb-teardown+tcb-reversal": (89.5, 7.1, 3.3),
}


def regenerate_table4(sites_count: int, repeats: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    cn_sites = inside_china_catalog(count=max(10, sites_count * 33 // 77))
    inside_rows = []
    for label, strategy_id in TABLE4_STRATEGIES:
        row = run_per_vantage(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            repeats=repeats, seed=3,
        )
        inside_rows.append((label, row))
    adaptive = run_per_vantage(
        None, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
        repeats=max(4, repeats), seed=3, adaptive=True,
    )
    inside_rows.append(("INTANG Performance", adaptive))
    outside_rows = []
    for label, strategy_id in TABLE4_STRATEGIES:
        row = run_per_vantage(
            strategy_id, OUTSIDE_VANTAGE_POINTS, cn_sites, DEFAULT_CALIBRATION,
            repeats=max(3, repeats), seed=3,
        )
        outside_rows.append((label, row))

    text = format_table4(inside_rows, title="Table 4 (inside China)")
    text += "\n\n" + format_table4(outside_rows, title="Table 4 (outside China)")
    text += "\n\nPaper averages (S/F1/F2) inside: " + ", ".join(
        f"{sid}={v}" for sid, v in PAPER_INSIDE.items()
    )
    text += "\nPaper averages (S/F1/F2) outside: " + ", ".join(
        f"{sid}={v}" for sid, v in PAPER_OUTSIDE.items()
    )
    text += "\nPaper INTANG row: 93.7/100.0/98.3 success."
    return text


def test_table4():
    text = regenerate_table4(bench_sites(), bench_repeats())
    report("table4", text)
    assert "INTANG Performance" in text
