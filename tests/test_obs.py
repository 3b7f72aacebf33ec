"""Observability acceptance tests: spans, anomaly dumps, exporters.

Pins these contracts of the one recorder:

- serial vs ``workers=2`` conformance runs produce span forests with
  identical trial-semantic content, and the chunked forest exports as
  valid Chrome trace-event JSON;
- a fleet shape with exactly one induced eviction false negative
  produces exactly one anomaly dump whose event window names the
  evicting LRU transition and the evicted flow's namespaced key;
- fleet dumps cross the process boundary in the merged worker records
  unchanged: two workers dump what the serial run does;
- a dump is a bounded slice of the event ring, taken only while the
  ring is kept;
- the event ring surfaces overflow through the registry
  (``telemetry.events_dropped``);
- ``repro telemetry metrics --prefix`` filters the table, JSON and
  OpenMetrics views identically;
- the sweep commands observe their own run: ``conformance run
  --trace-out`` writes CI's 29-event trace, and ``--dump-dir`` writes
  the dumps the run recorded (fleet anomalies, ``broken`` cells);
- the exporters (OpenMetrics text, histogram quantiles) behave as
  documented, and the bench harness's sizing knobs parse through
  :mod:`repro.core.env`.
"""

import json

import pytest

from repro.telemetry import EVENTS, OFF, SPANS, Recorder, observing
from repro.telemetry.export import (
    chrome_trace,
    histogram_quantile,
    latency_summary,
    openmetrics,
)
from repro.telemetry.recorder import DUMP_WINDOW
from repro.telemetry.trace import make_span, trial_semantic


# -- span recording -----------------------------------------------------


def test_tracer_disabled_is_inert():
    tracer = Recorder(level=OFF)
    assert tracer.begin("x", "trial") is None
    tracer.end(None)
    tracer.add(make_span("y", "trial"))
    assert tracer.drain() == {"spans": [], "dumps": []}


def test_tracer_nesting_and_drain():
    tracer = Recorder(level=SPANS)
    outer = tracer.begin("sweep", "sweep", cells=2)
    inner = tracer.begin("cell:a", "cell")
    tracer.end(inner, verdict="evades")
    tracer.end(outer)
    trees = tracer.drain()["spans"]
    assert len(trees) == 1
    root = trees[0]
    assert root["name"] == "sweep"
    assert root["attrs"] == {"cells": 2}
    assert root["wall_end"] >= root["wall_start"]
    (child,) = root["children"]
    assert child["name"] == "cell:a"
    assert child["attrs"]["verdict"] == "evades"
    assert tracer.drain()["spans"] == []


def test_tracer_end_recovers_leaked_children():
    """A child left open by an exception attaches under the closing
    ancestor instead of orphaning the stack."""
    tracer = Recorder(level=SPANS)
    outer = tracer.begin("outer", "sweep")
    tracer.begin("leaked", "trial")  # never explicitly ended
    tracer.end(outer)
    (root,) = tracer.drain()["spans"]
    assert [c["name"] for c in root["children"]] == ["leaked"]


def test_tracer_merge_works_while_disabled():
    """Merging worker records happens at any level, like
    MetricsRegistry.merge; spans attach under the open span."""
    tracer = Recorder(level=OFF)
    tracer.merge(
        {"spans": [make_span("from-worker", "trial")],
         "dumps": [{"anomaly": "broken"}]}
    )
    tracer.merge(None)
    assert tracer.drain() == {
        "spans": [make_span("from-worker", "trial")],
        "dumps": [{"anomaly": "broken"}],
    }
    tracer.level = SPANS
    sweep = tracer.begin("sweep", "sweep")
    tracer.merge({"spans": [make_span("late", "trial")], "dumps": []})
    tracer.end(sweep)
    (root,) = tracer.drain()["spans"]
    assert [c["name"] for c in root["children"]] == ["late"]


def test_trial_semantic_strips_hoists_and_sorts():
    trial_b = make_span("trial:b", "trial", sim_end=2.0, wall_end=9.9)
    trial_a = make_span("trial:a", "trial", sim_end=1.0, wall_end=1.1)
    chunk = make_span("chunk[2]", "chunk", children=[trial_b, trial_a])
    sweep = make_span("cell:x", "cell", children=[chunk])
    reduced = trial_semantic([sweep])
    assert len(reduced) == 1
    cell = reduced[0]
    # Wall fields are gone, the chunk wrapper is hoisted away, and the
    # out-of-order siblings are canonically sorted.
    assert "wall_end" not in cell
    assert [c["name"] for c in cell["children"]] == ["trial:a", "trial:b"]


# -- serial vs parallel span parity (acceptance) ------------------------


def _run_traced_matrix(workers):
    from repro.conformance import default_cells, run_matrix
    from repro.experiments.parallel import shutdown_pool

    cells = default_cells(
        strategies=["tcb-teardown-rst/ttl", "inorder-overlap/ttl"],
        variants=["evolved"],
        profiles=["neutral"],
        faults=["clean"],
    )
    with observing(SPANS) as recorder:
        recorder.clear()
        # A fresh pool, so the chunks really run in pool processes
        # forked mid-sweep under the open sweep span.
        shutdown_pool()
        results = run_matrix(cells, repeats=4, seed=11, workers=workers)
        return results, recorder.drain()["spans"]


@pytest.mark.slow
def test_span_forest_serial_vs_parallel_semantic_identity():
    serial_results, serial_trees = _run_traced_matrix(workers=1)
    parallel_results, parallel_trees = _run_traced_matrix(workers=2)
    # The verdicts were already pinned identical by the conformance
    # tests; the new contract is the span forests.
    assert {k: r.as_payload() for k, r in serial_results.items()} == {
        k: r.as_payload() for k, r in parallel_results.items()
    }
    # The workers' chunk spans reached the parent's forest.
    (parallel_sweep,) = parallel_trees
    assert [c["kind"] for c in parallel_sweep["children"]] == ["chunk"] * 2
    serial_semantic = trial_semantic(serial_trees)
    parallel_semantic = trial_semantic(parallel_trees)
    assert serial_semantic == parallel_semantic
    assert serial_semantic  # non-vacuous: spans were actually recorded
    kinds = {node["kind"] for node in serial_semantic}
    assert "cell" in kinds

    # The chunked forest must export as valid Chrome trace-event JSON.
    document = chrome_trace(parallel_trees)
    text = json.dumps(document)
    parsed = json.loads(text)
    assert parsed["traceEvents"], "trace export produced no events"
    for event in parsed["traceEvents"]:
        assert event["ph"] == "X"
        assert {"name", "ts", "dur", "pid", "tid"} <= set(event)


def test_worker_spans_reach_a_parent_that_forked_mid_sweep():
    """A pool created under an open sweep span forks that span into its
    workers; their chunk and cell spans must still come back."""
    from repro.conformance import default_cells
    from repro.conformance.matrix import run_cell
    from repro.experiments.parallel import map_trials, shutdown_pool

    cells = default_cells(
        strategies=["tcb-teardown-rst/ttl"], variants=["evolved"],
        profiles=["neutral", "aliyun"], faults=["clean"],
    )
    shutdown_pool()
    with observing(SPANS) as recorder:
        with recorder.span("sweep", "sweep"):
            map_trials(
                run_cell, [(cell, 1, 3) for cell in cells], workers=2,
            )
        (sweep,) = recorder.drain()["spans"]
    chunks = sweep["children"]
    assert [chunk["kind"] for chunk in chunks] == ["chunk", "chunk"]
    assert sorted(
        cell["name"] for chunk in chunks for cell in chunk["children"]
    ) == sorted(f"cell:{cell.cell_id}" for cell in cells)


# -- anomaly dumps (acceptance) -----------------------------------------


#: The pinned anomalous fleet shape: exactly ONE eviction false
#: negative (and zero blacklist false positives, so exactly one dump).
EVICTION_FN_SPEC = dict(
    flows=24, groups=1, window=12, max_flows=11, sites=6, seed=1
)


@pytest.mark.slow
def test_flight_recorder_single_eviction_false_negative_dump():
    from repro.experiments.fleet import FleetSpec, run_fleet

    spec = FleetSpec(**EVICTION_FN_SPEC)
    with observing(EVENTS) as recorder:
        result = run_fleet(spec, workers=1)
        dumps = recorder.drain()["dumps"]

    assert result.eviction_false_negatives == 1
    assert result.blacklist_false_positives == 0
    assert len(dumps) == 1
    dump = dumps[0]
    assert dump["anomaly"] == "eviction_false_negative"

    # The ring must name the evicting LRU transition and the evicted
    # flow's namespaced key.
    evicted = [e for e in dump["events"] if e["kind"] == "flow_evicted"]
    assert evicted, "dump ring is missing the flow_evicted transition"
    flow_index = dump["context"]["flow"]
    key_repr = dump["context"]["evicted_key"]
    assert key_repr.startswith(f"({flow_index},"), key_repr
    assert any(e["fields"].get("key") == key_repr for e in evicted)
    # Every ringed event is attributed to the anomalous flow.
    for event in dump["events"]:
        fields = event["fields"]
        assert flow_index in (fields.get("flow"), fields.get("namespace"))
    # The dump must survive a JSON round-trip (CI uploads it).
    assert json.loads(json.dumps(dump))["anomaly"] == dump["anomaly"]


#: The CI flight-recorder fleet shape (known blacklist false positives).
CI_FLIGHT_SPEC = dict(
    flows=120, groups=3, window=16, max_flows=24, sites=12, seed=99
)


def _fleet_dumps(**execution):
    from repro.experiments.fleet import FleetSpec, run_fleet

    with observing(EVENTS) as recorder:
        run_fleet(FleetSpec(**CI_FLIGHT_SPEC), **execution)
        dumps = recorder.drain()["dumps"]
    return sorted(json.dumps(dump, sort_keys=True) for dump in dumps)


def test_fleet_dumps_cross_the_process_boundary_unchanged():
    from repro.experiments.parallel import shutdown_pool

    serial = _fleet_dumps(workers=1)
    # A fresh pool forks from a parent whose ring still holds the serial
    # run's events: those must not leak into the workers' dumps.
    shutdown_pool()
    parallel = _fleet_dumps(workers=2)
    assert serial, "the CI shape produced no dumps"
    assert parallel == serial


def test_dump_is_a_bounded_slice_of_the_ring():
    recorder = Recorder(level=SPANS)
    assert recorder.dump("broken", since=0) is None  # no ring, no dump
    recorder.level = EVENTS
    recorder.publish("gfw", "before", flow=1)
    since = recorder.next_seq
    for index in range(DUMP_WINDOW + 10):
        recorder.publish("gfw", "tick", time=float(index), flow=index % 2)
    dump = recorder.dump(
        "eviction_false_negative",
        since=since,
        context={"flow": 1},
        match=lambda event: event.fields["flow"] == 1,
        snapshots=lambda: {"tcbs": {"k": (1, 2)}},
    )
    # The newest matching events since the watermark, seq rebased.
    assert len(dump["events"]) == (DUMP_WINDOW + 10) // 2
    assert [e["seq"] for e in dump["events"][:2]] == [1, 3]
    assert all(e["kind"] == "tick" for e in dump["events"])
    unmatched = recorder.dump("broken", since=since)
    assert len(unmatched["events"]) == DUMP_WINDOW
    assert unmatched["events"][-1]["seq"] == DUMP_WINDOW + 9
    assert dump["snapshots"] == {"tcbs": {"k": [1, 2]}}
    assert recorder.drain()["dumps"] == [dump, unmatched]


# -- event ring drop accounting -----------------------------------------


def test_event_bus_drop_counter_reaches_registry():
    from repro.telemetry.metrics import get_registry

    registry = get_registry()
    before = registry.counter_value("telemetry.events_dropped")
    bus = Recorder(level=EVENTS, capacity=4)
    for index in range(6):
        bus.publish("test", "tick", time=float(index))
    assert bus.dropped == 2
    assert registry.counter_value("telemetry.events_dropped") == before + 2
    # The ring kept the newest events.
    assert [e.time for e in bus.events()] == [2.0, 3.0, 4.0, 5.0]


# -- CLI surfaces -------------------------------------------------------


def test_fleet_run_trace_out_writes_group_wave_and_flow_spans(tmp_path):
    from repro.cli import main

    def names(workers):
        path = tmp_path / f"trace{workers}.json"
        assert main(["fleet", "run", "--flows", "24", "--groups", "2",
                     "--sites", "6", "--workers", workers,
                     "--trace-out", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        return sorted((e["cat"], e["name"]) for e in events)

    serial, chunked = names("1"), names("2")
    assert {"sweep", "wave", "flow"} <= {cat for cat, _ in serial}
    assert [cat for cat, _ in serial].count("flow") == 24
    # Same spans; the 2-worker trace adds one chunk span per group.
    assert [e for e in chunked if e[0] != "chunk"] == serial
    assert [cat for cat, _ in chunked].count("chunk") == 2


def test_conformance_run_trace_out_writes_the_ci_trace(tmp_path):
    """CI's span-trace step: 2 cells on 2 workers trace as 1 sweep,
    2 chunks, 2 cells, 8 trials and 16 phases, and nothing from the
    golden-ladder re-simulation that follows the sweep."""
    from collections import Counter

    from repro.cli import main

    path = tmp_path / "trace.json"
    assert main([
        "conformance", "run",
        "--strategies", "tcb-teardown-rst/ttl,tcb-creation-syn/ttl",
        "--variants", "evolved", "--profiles", "neutral", "--faults", "clean",
        "--repeats", "4", "--workers", "2", "--trace-out", str(path),
    ]) == 0
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == 29
    assert Counter(event["cat"] for event in events) == {
        "sweep": 1, "chunk": 2, "cell": 2, "trial": 8, "phase": 16,
    }


def test_fleet_run_dump_dir_writes_the_runs_dumps(tmp_path):
    from repro.cli import main

    assert main([
        "fleet", "run", "--flows", "120", "--groups", "3", "--window", "16",
        "--max-flows", "24", "--sites", "12", "--seed", "99",
        "--workers", "1", "--dump-dir", str(tmp_path),
    ]) == 0
    written = sorted(
        json.dumps(json.loads(path.read_text()), sort_keys=True)
        for path in tmp_path.glob("flight_*.json")
    )
    assert written == _fleet_dumps(workers=1)


def test_conformance_run_dump_dir_writes_the_broken_cell(tmp_path):
    from repro.cli import main

    assert main([
        "conformance", "run", "--strategies", "ooo-ip-fragments",
        "--variants", "evolved", "--profiles", "aliyun", "--faults", "clean",
        "--dump-dir", str(tmp_path),
    ]) == 0
    (path,) = tmp_path.iterdir()
    assert path.name == "flight_000_broken.json"
    dump = json.loads(path.read_text())
    assert dump["context"]["cell"] == (
        "ooo-ip-fragments|evolved|aliyun|clean"
    )
    assert dump["events"], "the broken cell's event window is empty"


def test_forced_drift_diagnosis_prints_only_moved_instruments(
    capsys, monkeypatch
):
    """A drift diagnosis's metrics delta lists what the re-run moved, not
    every registered instrument at zero."""
    import dataclasses
    import re

    from repro.cli import main
    from repro.conformance import oracles

    find_rule = oracles.find_rule
    monkeypatch.setattr(
        oracles, "find_rule",
        lambda cell: dataclasses.replace(find_rule(cell), allowed=()),
    )
    assert main([
        "conformance", "run",
        "--strategies", "tcb-teardown-rst/ttl,tcb-creation-syn/ttl",
        "--variants", "evolved", "--profiles", "neutral", "--faults", "clean",
        "--repeats", "4",
    ]) == 1
    out = capsys.readouterr().out
    assert out.count("-- metrics delta ") == 2
    assert re.search(r"\scounter\s+[1-9]", out)
    assert not re.search(r"\scounter\s+0$", out, re.MULTILINE)
    assert not re.search(r"\shistogram\s+count=0 ", out)


def test_dump_dir_marks_a_run_without_anomalies(tmp_path):
    from repro.cli import main

    assert main([
        "fleet", "run", "--flows", "4", "--groups", "1", "--sites", "2",
        "--dump-dir", str(tmp_path),
    ]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["NO_ANOMALIES"]


def test_obs_command_is_gone(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["obs", "trace"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'obs'" in capsys.readouterr().err


def test_metrics_cli_prefix_filters_json_and_table(capsys):
    from repro.cli import main

    rc = main(
        [
            "telemetry", "metrics", "--format", "json", "--prefix", "dpi.",
            "--sites", "2", "--seed", "31",
        ]
    )
    assert rc == 0
    snapshot = json.loads(capsys.readouterr().out)
    names = [
        name
        for family in ("counters", "gauges", "histograms")
        for name in snapshot.get(family, {})
    ]
    assert names, "prefix filter removed everything"
    assert all(name.startswith("dpi.") for name in names)

    rc = main(
        [
            "telemetry", "metrics", "--prefix", "dpi.",
            "--sites", "2", "--seed", "31",
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    table_names = [
        line.split()[0] for line in table.splitlines() if line.strip()
    ]
    # Same instrument set through both views.
    assert sorted(table_names) == sorted(names)

    rc = main(
        [
            "telemetry", "metrics", "--format", "openmetrics",
            "--prefix", "dpi.", "--sites", "2", "--seed", "31",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert text.endswith("# EOF\n")
    families = [line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ")]
    assert sorted(families) == sorted(
        "repro_" + name.replace(".", "_") for name in names
    )


def test_perf_profile_names_the_strategies_the_trials_used(capsys):
    """Without --strategy the profiled trials run INTANG's adaptive
    selector; the cell line must name what it picked, as the diagnosis
    of the same seed does, not claim the no-strategy baseline."""
    import re

    from repro.cli import main

    assert main(["telemetry", "diagnose", "--seed", "7"]) == 0
    diagnosed = re.search(r"strategy=(\S+)", capsys.readouterr().out)[1]
    assert diagnosed != "none"
    assert main(
        ["perf", "profile", "--seed", "7", "--repeats", "1", "--top", "1"]
    ) == 0
    cell = capsys.readouterr().out.splitlines()[0]
    assert " strategy=adaptive " in cell
    assert f" used={diagnosed}:1 " in cell
    assert main(
        ["perf", "profile", "--strategy", "none", "--repeats", "2",
         "--top", "1"]
    ) == 0
    assert " strategy=none used=none:2 " in capsys.readouterr().out


def test_fleet_cli_json_reports_latency_percentiles(capsys):
    from repro.cli import main

    rc = main(
        [
            "fleet", "run", "--flows", "24", "--groups", "1",
            "--window", "12", "--sites", "6", "--seed", "5", "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    latency = payload["flow_sim_latency"]
    assert latency["count"] == 24
    assert 0.0 < latency["p50"] <= latency["p90"] <= latency["p99"]


def test_fleet_cli_json_reports_collector_time(capsys):
    from repro.cli import main

    rc = main(
        [
            "fleet", "run", "--flows", "24", "--groups", "1",
            "--window", "12", "--sites", "6", "--seed", "5", "--json",
        ]
    )
    assert rc == 0
    collector = json.loads(capsys.readouterr().out)["collector"]
    assert sorted(collector) == ["collections", "seconds"]
    assert len(collector["collections"]) == 3
    assert all(isinstance(n, int) and n >= 0 for n in collector["collections"])
    assert collector["seconds"] >= 0.0


# -- exporters ----------------------------------------------------------


def test_histogram_quantile_interpolates():
    data = {
        "buckets": [1.0, 2.0, 4.0],
        "counts": [4, 4, 0, 0],  # 4 in (<=1], 4 in (1, 2]
        "sum": 12.0,
        "count": 8,
    }
    assert histogram_quantile(data, 0.5) == pytest.approx(1.0)
    assert histogram_quantile(data, 0.75) == pytest.approx(1.5)
    assert histogram_quantile(data, 1.0) == pytest.approx(2.0)
    assert histogram_quantile({"buckets": [1.0], "counts": [0, 0],
                               "sum": 0.0, "count": 0}, 0.5) == 0.0


def test_openmetrics_exposition_shape():
    snapshot = {
        "counters": {"gfw.rst_sent": 3},
        "gauges": {"pool.size": 2.0},
        "histograms": {
            "trial.wall_seconds": {
                "buckets": [0.1, 1.0],
                "counts": [2, 1, 1],
                "sum": 1.5,
                "count": 4,
            }
        },
    }
    text = openmetrics(snapshot)
    assert "repro_gfw_rst_sent_total 3" in text
    assert "repro_pool_size 2.0" in text
    # Cumulative buckets, closed by +Inf == count.
    assert 'repro_trial_wall_seconds_bucket{le="0.1"} 2' in text
    assert 'repro_trial_wall_seconds_bucket{le="1"} 3' in text
    assert 'repro_trial_wall_seconds_bucket{le="+Inf"} 4' in text
    assert text.endswith("# EOF\n")
    summaries = latency_summary(snapshot, names=["trial.wall_seconds"])
    assert summaries["trial.wall_seconds"]["count"] == 4


# -- bench sizing knobs -------------------------------------------------


def _bench_conftest():
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "conftest.py"
    )
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("spelling", ["1", "true", "Yes", "ON"])
def test_bench_full_scale_accepts_every_boolean_spelling(monkeypatch, spelling):
    bench = _bench_conftest()
    monkeypatch.setenv("REPRO_FULL", spelling)
    monkeypatch.setenv("REPRO_BENCH_SITES", "3")
    assert bench.full_scale()
    assert bench.bench_sites() == 77
    assert bench.bench_repeats() == 50
    assert bench.bench_dns_queries() == 100


@pytest.mark.parametrize("name, reader", [
    ("REPRO_BENCH_SITES", "bench_sites"),
    ("REPRO_BENCH_REPEATS", "bench_repeats"),
    ("REPRO_BENCH_DNS", "bench_dns_queries"),
])
def test_bench_size_knobs_reject_malformed_values(monkeypatch, name, reader):
    from repro.core.env import EnvKnobError

    bench = _bench_conftest()
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv(name, "7")
    assert getattr(bench, reader)() == 7
    for bad in ("abc", "0"):
        monkeypatch.setenv(name, bad)
        with pytest.raises(EnvKnobError, match=name):
            getattr(bench, reader)()
    monkeypatch.setenv("REPRO_FULL", "maybe")
    with pytest.raises(EnvKnobError, match="REPRO_FULL"):
        getattr(bench, reader)()
