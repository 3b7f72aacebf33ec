#!/usr/bin/env python3
"""Perf gate: perfbench runs against the committed record.

Run from the repository root::

    python3 benchmarks/perf_gate.py             # gate; exit 1 on a regression
    python3 benchmarks/perf_gate.py --record 5  # rewrite the record

For every workload in ``BENCHMARK.json`` the gate runs the benchmark's
command (``perfbench/run.py --workload W --seed 1 --seconds <run_seconds>
--trace 0``) and reads the last line of its output.  A workload fails
unless that line says ``"correct": true`` and its ``trials_per_s`` is
within the bound ``BENCHMARK.json`` gives that metric of the committed
record, ``benchmarks/results/perfbench_baseline.json``.  The record
holds, per workload, the median of ``--record`` interleaved runs.

Only ``trials_per_s`` is gated.  The other end-to-end metrics are
printed beside the record: single runs of the fleet's ``cell_p90_ms``
and ``setup_s`` spread wider than their bounds, so one run of them
cannot tell a regression from drift.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
RECORD = ROOT / "benchmarks" / "results" / "perfbench_baseline.json"

GATED_METRIC = "trials_per_s"
SEED = 1


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_spec(benchmark: dict) -> dict:
    """The gated metric's ``end_to_end`` entry in ``BENCHMARK.json``."""
    for spec in benchmark["end_to_end"]:
        if spec["name"] == GATED_METRIC:
            return spec
    raise KeyError(f"BENCHMARK.json declares no end-to-end metric {GATED_METRIC!r}")


def workload_command(benchmark: dict, workload: str) -> List[str]:
    return list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]


def last_result(stdout: str) -> Optional[dict]:
    """The JSON object on the last non-empty line, or ``None``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def run_workload(benchmark: dict, workload: str) -> Optional[dict]:
    """Run one perfbench process; its final result line, or ``None``."""
    command = workload_command(benchmark, workload)
    print(f"$ {' '.join(command)}", flush=True)
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=10 * benchmark["run_seconds"] + 120,
    )
    result = last_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def metric_values(result: dict) -> Dict[str, float]:
    return {
        name: entry["value"]
        for name, entry in result.get("metrics", {}).items()
    }


def compare(
    results: Dict[str, Optional[dict]], record: dict, benchmark: dict
) -> List[str]:
    """Every reason the gate fails; empty when it passes.

    ``results`` maps a workload to its perfbench result line; each
    workload of ``benchmark`` is checked against ``record`` with the
    gated metric's ``bound`` and ``better`` from ``benchmark``.
    """
    spec = metric_spec(benchmark)
    bound = spec["bound"]
    problems = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        result = results.get(workload)
        if result is None:
            problems.append(f"{workload}: no result line")
            continue
        if result.get("correct") is not True:
            problems.append(f"{workload}: run not correct")
            continue
        base = record.get("workloads", {}).get(workload, {}).get(GATED_METRIC)
        value = metric_values(result).get(GATED_METRIC)
        if base is None or value is None:
            which = "record" if base is None else "result"
            problems.append(f"{workload}: {GATED_METRIC} missing from the {which}")
            continue
        if spec["better"] == "higher":
            regressed = value < base * (1.0 - bound)
        else:
            regressed = value > base * (1.0 + bound)
        if regressed:
            problems.append(
                f"{workload}: {GATED_METRIC} {value:.1f} is "
                f"{value / base - 1.0:+.1%} from the record {base:.1f} "
                f"(bound {bound:.0%})"
            )
    return problems


def print_metrics(results: Dict[str, Optional[dict]], record: dict) -> None:
    """Print every end-to-end metric beside its recorded median."""
    for workload, result in results.items():
        if result is None:
            continue
        recorded = record.get("workloads", {}).get(workload, {})
        for name, value in sorted(metric_values(result).items()):
            base = recorded.get(name)
            change = f"{value / base - 1.0:+7.1%}" if base else "      -"
            gated = "gated" if name == GATED_METRIC else ""
            base_text = f"{base:10.2f}" if base is not None else "         -"
            print(f"  {workload:<20} {name:<13} {value:10.2f} "
                  f"record {base_text} {change}  {gated}")


def make_record(runs: Dict[str, List[dict]], benchmark: dict) -> dict:
    """The committed record: per workload, the median of every metric."""
    workloads = {}
    for workload, results in runs.items():
        values = [metric_values(result) for result in results]
        names = sorted(set().union(*values))
        workloads[workload] = {
            name: statistics.median(v[name] for v in values) for name in names
        }
        workloads[workload]["runs"] = {
            name: [v[name] for v in values] for name in names
        }
    return {
        "command": " ".join(workload_command(benchmark, "<workload>")),
        "runs_per_workload": min(len(results) for results in runs.values()),
        "python": platform.python_version(),
        "workloads": workloads,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--record", type=int, metavar="RUNS", default=0,
        help="rewrite the record from RUNS interleaved runs per workload",
    )
    args = parser.parse_args(argv)
    benchmark = load_json(BENCHMARK)
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    if args.record:
        runs: Dict[str, List[dict]] = {workload: [] for workload in workloads}
        for _ in range(args.record):
            for workload in workloads:
                result = run_workload(benchmark, workload)
                if result is None or result.get("correct") is not True:
                    print(f"perf gate: {workload} run not correct; "
                          "record not written", file=sys.stderr)
                    return 1
                runs[workload].append(result)
        RECORD.write_text(
            json.dumps(make_record(runs, benchmark), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {RECORD.relative_to(ROOT)}")
        return 0
    record = load_json(RECORD)
    results = {workload: run_workload(benchmark, workload) for workload in workloads}
    print_metrics(results, record)
    problems = compare(results, record, benchmark)
    for problem in problems:
        print(f"perf gate: FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"perf gate: OK ({len(workloads)} workloads, {GATED_METRIC} "
          f"within {metric_spec(benchmark)['bound']:.0%} of the record)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
