#!/usr/bin/env python3
"""Paired perf ratios: this checkout against a base revision.

Run from the repository root::

    python3 benchmarks/perf_pair.py --base HEAD~1 --workload table1_fresh \\
        --pairs 10 --seeds 901..

The base revision is checked out into a temporary ``git worktree``
(removed again at the end).  Each pair runs the benchmark's command
(``perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0``, from ``BENCHMARK.json``) once in the base checkout and once
in this one, on the pair's seed, alternating which side runs first.

For every end-to-end metric the report gives each side's median, the
median of the per-pair ratios (this checkout / base), a
percentile-bootstrap 95 % interval of that median (fixed bootstrap
seed, so a report reproduces from its runs), the pairs this checkout
won (ties count for neither), and a verdict:

- ``no change``: the interval contains 1.0;
- ``worse``: the interval lies on the bad side of 1.0;
- ``better``: the interval lies on the metric's good side of 1.0, this
  checkout won at least nine tenths of the pairs, and the medians differ
  by more than the base runs' interquartile range;
- ``unresolved``: anything else, and any interval from fewer than
  ``MIN_PAIRS`` pairs that excludes 1.0.

Outcome digests are compared for the pairs whose two runs made the same
number of passes (a digest covers every pass a run made).  The output is
one markdown table and one JSON object (``--json PATH`` also writes it
to a file).
"""

from __future__ import annotations

import argparse
import json
import random
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

# The gate script beside this one: its benchmark command and result
# line reader.
from perf_gate import BENCHMARK, ROOT, last_result, load_json, metric_values, workload_command

#: Fewer pairs than this never give a "better" or "worse" verdict.
MIN_PAIRS = 10
BOOTSTRAP_SEED = 20171101
BOOTSTRAP_RESAMPLES = 4000
#: The unscaled throughput perfbench prints beside the scaled one.
RAW_METRIC = {"name": "raw_trials_per_s", "unit": "1/s", "better": "higher"}
_PASSES = re.compile(r"^# passes (\d+), units \d+, digest ([0-9a-f]+)$", re.M)
_RAW = re.compile(r"raw trials_per_s ([0-9.]+)")


def parse_seeds(text: str, pairs: int) -> List[int]:
    """``A..`` is ``pairs`` seeds from A; ``A..B`` is A to B inclusive;
    ``A,B,C`` is a list."""
    if ".." in text:
        first, _, last = text.partition("..")
        start = int(first)
        end = int(last) if last else start + pairs - 1
        return list(range(start, end + 1))
    return [int(part) for part in text.split(",") if part]


def parse_run(output: str) -> dict:
    """A perfbench run's result: metrics, correctness, passes, digest."""
    result = last_result(output)
    metrics = metric_values(result)
    raw = _RAW.search(output)
    if raw:
        metrics[RAW_METRIC["name"]] = float(raw.group(1))
    found = _PASSES.search(output)
    return {
        "correct": bool(result["correct"]),
        "failed": result.get("failed", 0),
        "metrics": metrics,
        "passes": int(found.group(1)) if found else None,
        "digest": found.group(2) if found else None,
    }


def pair_ratios(base: Sequence[float], change: Sequence[float]) -> List[float]:
    return [c / b for b, c in zip(base, change)]


def bootstrap_interval(
    ratios: Sequence[float],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> tuple:
    """Percentile-bootstrap 95 % interval of the median of ``ratios``."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=n)) for _ in range(resamples)
    )
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def quartile_distance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(base: Sequence[float], change: Sequence[float], better: str) -> dict:
    """Everything the report says about one metric."""
    ratios = pair_ratios(base, change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    low, high = bootstrap_interval(ratios)
    median_base = statistics.median(base)
    median_change = statistics.median(change)
    good_side = low > 1.0 if sign > 0 else high < 1.0
    bad_side = high < 1.0 if sign > 0 else low > 1.0
    if low <= 1.0 <= high:
        verdict = "no change"
    elif len(ratios) < MIN_PAIRS:
        verdict = "unresolved"
    elif bad_side:
        verdict = "worse"
    elif (
        good_side
        and wins * 10 >= 9 * len(ratios)
        and abs(median_change - median_base) > quartile_distance(base)
    ):
        verdict = "better"
    else:
        verdict = "unresolved"
    return {
        "median_base": median_base,
        "median_change": median_change,
        "base_iqr": quartile_distance(base),
        "median_ratio": statistics.median(ratios),
        "interval": [low, high],
        "wins": wins,
        "pairs": len(ratios),
        "verdict": verdict,
    }


def digest_check(base_runs: Sequence[dict], change_runs: Sequence[dict]) -> dict:
    comparable = [
        (b, c) for b, c in zip(base_runs, change_runs)
        if b["passes"] is not None and b["passes"] == c["passes"]
    ]
    return {
        "equal": sum(1 for b, c in comparable if b["digest"] == c["digest"]),
        "comparable": len(comparable),
        "pairs": len(base_runs),
    }


def report(workload: str, base_runs: List[dict], change_runs: List[dict],
           specs: Sequence[dict]) -> dict:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in run["metrics"] for run in base_runs + change_runs):
            continue
        metrics[name] = judge(
            [run["metrics"][name] for run in base_runs],
            [run["metrics"][name] for run in change_runs],
            spec["better"],
        )
        metrics[name]["unit"] = spec["unit"]
    return {
        "workload": workload,
        "metrics": metrics,
        "digests": digest_check(base_runs, change_runs),
        "all_correct": all(run["correct"] for run in base_runs + change_runs),
        "passes": {
            "base": [run["passes"] for run in base_runs],
            "change": [run["passes"] for run in change_runs],
        },
        "runs": {"base": base_runs, "change": change_runs},
    }


def markdown(result: dict, base_label: str) -> str:
    lines = [
        f"`{result['workload']}`, {base_label} → this checkout:",
        "",
        "| metric | base median | change median | median ratio | 95 % interval "
        "| pairs won | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, row in result["metrics"].items():
        low, high = row["interval"]
        lines.append(
            f"| {name} ({row['unit']}) | {row['median_base']:.4g} "
            f"| {row['median_change']:.4g} | {row['median_ratio']:.3f} "
            f"| {low:.3f}–{high:.3f} | {row['wins']}/{row['pairs']} "
            f"| {row['verdict']} |"
        )
    digests = result["digests"]
    lines += [
        "",
        f"Digests equal in {digests['equal']} of {digests['comparable']} pairs "
        f"with equal pass counts ({digests['pairs']} pairs); passes base "
        f"{result['passes']['base']}, change {result['passes']['change']}; "
        f"every run correct: {result['all_correct']}.",
    ]
    return "\n".join(lines)


def _run(checkout: Path, command: List[str]) -> dict:
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"perfbench failed in {checkout}")
    return parse_run(completed.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1..", help="A.. | A..B | A,B,C (default 1..)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--json", help="also write the JSON report here")
    args = parser.parse_args(argv)

    benchmark = load_json(BENCHMARK)
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    seeds = parse_seeds(args.seeds, args.pairs)[: args.pairs]
    if len(seeds) < args.pairs:
        parser.error(f"--seeds gives {len(seeds)} seeds for {args.pairs} pairs")
    specs = list(benchmark["end_to_end"]) + [RAW_METRIC]

    results = []
    with tempfile.TemporaryDirectory(prefix="perf-pair-") as scratch:
        base_dir = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_dir), args.base],
            cwd=ROOT, check=True, capture_output=True,
        )
        try:
            for workload in workloads:
                base_runs, change_runs = [], []
                for index, seed in enumerate(seeds):
                    command = workload_command(benchmark, workload, seed)
                    sides = [(base_dir, base_runs), (ROOT, change_runs)]
                    if index % 2:
                        sides.reverse()
                    for checkout, runs in sides:
                        runs.append(_run(checkout, command))
                    print(f"# {workload} seed {seed}: "
                          f"base {base_runs[-1]['metrics'].get('trials_per_s', 0):.1f}, "
                          f"change {change_runs[-1]['metrics'].get('trials_per_s', 0):.1f} "
                          "trials/s", flush=True)
                result = report(workload, base_runs, change_runs, specs)
                result["seeds"] = seeds
                results.append(result)
                print(markdown(result, args.base), flush=True)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_dir)],
                cwd=ROOT, check=False, capture_output=True,
            )
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
    payload = {"base": args.base, "pairs": args.pairs, "results": results}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
