"""The paired perf tool's arithmetic, fed fixed numbers.

``benchmarks/perf_pair.py`` is a script, so it is loaded from its path.
These tests run no perfbench process and make no worktree: they pin the
pair ratio, the bootstrap interval, the verdict, the parsing of a
perfbench result, and the copy of the working tree the change side runs
from (against a throwaway git repository).
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load():
    # As when run as a script: perf_pair imports perf_gate beside it.
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        path = os.path.join(ROOT, "benchmarks", "perf_pair.py")
        spec = importlib.util.spec_from_file_location("perf_pair", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


pair = _load()

BASE = [900.0, 905.0, 880.0, 910.0, 895.0, 890.0, 902.0, 888.0, 899.0, 893.0]


def test_pair_ratio_is_change_over_base():
    assert pair.pair_ratios([2.0, 4.0], [3.0, 2.0]) == [1.5, 0.5]


def test_bootstrap_interval_is_fixed_and_brackets_the_median():
    ratios = [1.10, 1.08, 1.12, 1.09, 1.11, 1.07, 1.13, 1.10, 1.09, 1.12]
    first = pair.bootstrap_interval(ratios)
    assert first == pair.bootstrap_interval(ratios)  # fixed seed
    low, high = first
    assert min(ratios) <= low <= 1.10 <= high <= max(ratios)
    # A constant sample has a point interval.
    assert pair.bootstrap_interval([1.05] * 10) == (1.05, 1.05)


def test_bootstrap_interval_pinned_on_fixed_input():
    low, high = pair.bootstrap_interval([0.9, 1.0, 1.1, 1.2, 1.3], resamples=400, seed=1)
    assert (low, high) == (0.9, 1.3)
    low, high = pair.bootstrap_interval(
        [1.0 + i / 100 for i in range(10)], resamples=1000, seed=7
    )
    assert 1.015 <= low <= 1.03 and 1.06 <= high <= 1.08


def test_a_clear_gain_is_better():
    change = [value * 1.10 for value in BASE]
    row = pair.judge(BASE, change, "higher")
    assert row["median_ratio"] == pytest.approx(1.10)
    assert row["wins"] == 10
    assert row["verdict"] == "better"
    assert row["interval"][0] > 1.0


def test_lower_is_better_metrics_read_the_other_way():
    change = [value * 0.9 for value in BASE]
    assert pair.judge(BASE, change, "lower")["verdict"] == "better"
    assert pair.judge(BASE, change, "higher")["verdict"] == "worse"


def test_an_interval_across_one_is_no_change():
    change = [value * (1.02 if i % 2 else 0.98) for i, value in enumerate(BASE)]
    row = pair.judge(BASE, change, "higher")
    assert row["interval"][0] <= 1.0 <= row["interval"][1]
    assert row["verdict"] == "no change"


def test_a_gain_inside_the_base_spread_or_with_lost_pairs_is_unresolved():
    # Every pair won, but by less than the base runs' quartile distance.
    tiny = [value * 1.002 for value in BASE]
    row = pair.judge(BASE, tiny, "higher")
    assert row["interval"][0] > 1.0
    assert abs(row["median_change"] - row["median_base"]) < row["base_iqr"]
    assert row["verdict"] == "unresolved"
    # A clear median gain, but two pairs lost: fewer than nine tenths won.
    mixed = [value * 1.10 for value in BASE[:8]] + [value * 0.99 for value in BASE[8:]]
    row = pair.judge(BASE, mixed, "higher")
    assert row["wins"] == 8
    assert row["verdict"] == "unresolved"


def test_fewer_than_ten_pairs_never_give_a_verdict():
    row = pair.judge(BASE[:9], [value * 1.10 for value in BASE[:9]], "higher")
    assert row["wins"] == 9
    assert row["verdict"] == "unresolved"
    row = pair.judge(BASE[:1], [BASE[0] * 0.5], "higher")
    assert row["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    row = pair.judge([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], "higher")
    assert row["wins"] == 1


def _output(trials_per_s, passes, digest):
    metrics = {
        "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": 27.0, "unit": "MB"},
    }
    return "\n".join([
        "# workload table1_fresh",
        f"# passes {passes}, units 990, digest {digest}",
        "# host reference: median 8.6 ms over 15 samples, 25 ms nominal; "
        "raw trials_per_s 2600.5, cell_p50_ms 7.4, cell_p90_ms 8.6",
        json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}),
    ])


def test_parse_run_reads_metrics_passes_and_digest():
    run = pair.parse_run(_output(900.0, 3, "ab12"))
    assert run["metrics"] == {
        "trials_per_s": 900.0, "peak_rss_mb": 27.0, "raw_trials_per_s": 2600.5,
    }
    assert (run["passes"], run["digest"], run["correct"]) == (3, "ab12", True)


def test_digests_compare_only_at_equal_pass_counts():
    base = [pair.parse_run(_output(900, p, d)) for p, d in [(3, "a"), (3, "b"), (2, "c")]]
    change = [pair.parse_run(_output(990, p, d)) for p, d in [(3, "a"), (3, "e"), (3, "f")]]
    assert pair.digest_check(base, change) == {"equal": 1, "comparable": 2, "pairs": 3}
    result = pair.report("table1_fresh", base, change, [
        {"name": "trials_per_s", "unit": "1/s", "better": "higher"},
        {"name": "cell_p50_ms", "unit": "ms", "better": "lower"},  # absent: skipped
    ])
    assert list(result["metrics"]) == ["trials_per_s"]
    assert result["metrics"]["trials_per_s"]["median_ratio"] == pytest.approx(1.1)
    assert result["passes"] == {"base": [3, 3, 2], "change": [3, 3, 3]}
    assert "| trials_per_s (1/s) | 900 | 990 | 1.100 |" in pair.markdown(result, "HEAD~1")


def test_seed_lists():
    assert pair.parse_seeds("901..", 3) == [901, 902, 903]
    assert pair.parse_seeds("5..7", 10) == [5, 6, 7]
    assert pair.parse_seeds("4,9,2", 3) == [4, 9, 2]


def test_copy_working_tree_takes_tracked_files_as_on_disk(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("old\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")  # uncommitted edit
    (repo / "pkg" / "new.py").write_text("Y = 3\n")
    git("add", "pkg/new.py")  # staged, never committed
    (repo / "gone.py").unlink()  # tracked, deleted on disk
    (repo / "scratch.txt").write_text("untracked\n")
    (repo / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"\0")

    pair.copy_working_tree(repo, dest)
    copied = sorted(
        path.relative_to(dest).as_posix() for path in dest.rglob("*") if path.is_file()
    )
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert (dest / "pkg" / "new.py").read_text() == "Y = 3\n"
