"""The CI perf gate's comparison, fed hand-written perfbench result lines.

``benchmarks/perf_gate.py`` is a script, not a package module, so it is
loaded from its path.  These tests run no perfbench process: they pin
how a result line is read and judged against the committed record, with
the bound taken from ``BENCHMARK.json``.
"""

import copy
import importlib.util
import json
import os
import statistics

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load_gate():
    path = os.path.join(ROOT, "benchmarks", "perf_gate.py")
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


@pytest.fixture
def benchmark_spec():
    return gate.load_json(gate.BENCHMARK)


@pytest.fixture
def record():
    return gate.load_json(gate.RECORD)


def _line(trials_per_s, correct=True, **extra):
    metrics = {"trials_per_s": {"value": trials_per_s, "unit": "1/s"}}
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": "-"}
    return {"correct": correct, "attempted": 100, "failed": 0, "metrics": metrics}


def _results_at(record, scale=1.0):
    """One result line per recorded workload, at ``scale`` x its median."""
    return {
        workload: _line(entry["trials_per_s"] * scale)
        for workload, entry in record["workloads"].items()
    }


def test_record_covers_every_benchmark_workload(benchmark_spec, record):
    names = {entry["name"] for entry in benchmark_spec["workloads"]}
    assert set(record["workloads"]) == names
    assert record["runs_per_workload"] >= 5
    for entry in record["workloads"].values():
        runs = entry["runs"]["trials_per_s"]
        assert len(runs) == record["runs_per_workload"]
        assert entry["trials_per_s"] == statistics.median(runs)


def test_committed_record_passes_against_itself(benchmark_spec, record):
    assert gate.compare(_results_at(record), record, benchmark_spec) == []


def test_thirty_percent_slowdown_fails_naming_the_workload(
    benchmark_spec, record
):
    results = _results_at(record)
    slow = sorted(results)[0]
    results[slow] = _line(record["workloads"][slow]["trials_per_s"] * 0.7)
    problems = gate.compare(results, record, benchmark_spec)
    assert len(problems) == 1
    assert problems[0].startswith(f"{slow}: trials_per_s")
    assert "-30.0%" in problems[0]


def test_incorrect_run_fails_whatever_its_speed(benchmark_spec, record):
    results = _results_at(record, scale=2.0)
    workload = sorted(results)[-1]
    results[workload]["correct"] = False
    problems = gate.compare(results, record, benchmark_spec)
    assert problems == [f"{workload}: run not correct"]


def test_missing_workload_fails(benchmark_spec, record):
    results = _results_at(record)
    workload = sorted(results)[1]
    del results[workload]
    assert gate.compare(results, record, benchmark_spec) == [
        f"{workload}: no result line"
    ]
    results[workload] = None  # the run printed no parsable line
    assert gate.compare(results, record, benchmark_spec) == [
        f"{workload}: no result line"
    ]


def test_bound_is_read_from_benchmark_json(benchmark_spec, record):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    assert gate.metric_spec(benchmark_spec) == declared["trials_per_s"]
    bound = declared["trials_per_s"]["bound"]
    assert gate.compare(
        _results_at(record, 1.0 - bound + 0.01), record, benchmark_spec
    ) == []
    assert len(gate.compare(
        _results_at(record, 1.0 - bound - 0.01), record, benchmark_spec
    )) == len(record["workloads"])
    looser = copy.deepcopy(benchmark_spec)
    gate.metric_spec(looser)["bound"] = 0.5
    assert gate.compare(_results_at(record, 0.6), record, looser) == []
    assert gate.compare(_results_at(record, 0.6), record, benchmark_spec)


def test_last_result_reads_the_final_json_line():
    line = _line(812.5)
    stdout = "# workload x\n# trials_per_s = 812.5\n" + json.dumps(line) + "\n\n"
    assert gate.last_result(stdout) == line
    assert gate.last_result("# only comments\n") is None
    assert gate.last_result("") is None
    assert gate.last_result('["not", "an", "object"]\n') is None


def test_make_record_takes_the_median_of_each_metric(benchmark_spec):
    runs = {
        "table1_fresh": [
            _line(900.0, setup_s=0.4), _line(700.0, setup_s=0.9),
            _line(810.0, setup_s=0.3),
        ],
    }
    made = gate.make_record(runs, benchmark_spec)
    entry = made["workloads"]["table1_fresh"]
    assert entry["trials_per_s"] == 810.0
    assert entry["setup_s"] == 0.4
    assert entry["runs"]["trials_per_s"] == [900.0, 700.0, 810.0]
    assert made["runs_per_workload"] == 3
    assert "--seed 1" in made["command"] and "--trace 0" in made["command"]
