"""Table 1 — existing evasion strategies against today's GFW.

Regenerates all fifteen strategy/discrepancy rows, with and without the
sensitive keyword, across the 11 in-China vantage points and the
synthetic website catalog.  Paper values are printed beside ours; the
shape to check (§3.4): TCB creation ~89 % Failure 2, out-of-order IP
fragments dominated by Failure 1 (Aliyun discards) and Failure 2
(middlebox reassembly), in-order prefill > 80 % success, RST teardown
~70 % success with ~25 % Failure 2 (NB3), FIN teardown dead.
"""

from conftest import bench_repeats, bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments.tables import format_table1
from repro.strategies.registry import TABLE1_ROWS

#: (success, failure1, failure2) percentages from the paper's Table 1.
PAPER_TABLE1 = {
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


def regenerate_table1(sites_count: int, repeats: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    results = []
    comparison_lines = []
    for label, strategy_id, discrepancy in TABLE1_ROWS:
        with_kw = run_strategy_cell(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            repeats=repeats, seed=7, keyword=True,
        )
        without_kw = run_strategy_cell(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            repeats=repeats, seed=8, keyword=False,
        )
        results.append((label, discrepancy, with_kw, without_kw))
        ours = with_kw.as_percentages()
        paper = PAPER_TABLE1[strategy_id]
        comparison_lines.append(
            f"  {label + ' [' + discrepancy + ']':<46} "
            f"ours {ours[0]:5.1f}/{ours[1]:5.1f}/{ours[2]:5.1f}   "
            f"paper {paper[0]:5.1f}/{paper[1]:5.1f}/{paper[2]:5.1f}"
        )
    text = format_table1(results)
    text += "\n\nOurs vs paper (Success/Failure1/Failure2, with keyword):\n"
    text += "\n".join(comparison_lines)
    return text


def test_table1():
    sites_count = bench_sites()
    repeats = bench_repeats()
    text = regenerate_table1(sites_count, repeats)
    report("table1", text)
    assert "TCB teardown with FIN" in text
