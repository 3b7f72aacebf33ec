"""Observability acceptance tests: spans, anomaly dumps, exporters.

Pins these contracts of the one recorder:

- serial vs ``shards=2`` conformance runs produce span forests with
  identical trial-semantic content, and the sharded forest exports as
  valid Chrome trace-event JSON;
- a fleet shape with exactly one induced eviction false negative
  produces exactly one anomaly dump whose event window names the
  evicting LRU transition and the evicted flow's namespaced key;
- fleet dumps cross the process boundary in the merged worker records
  unchanged: two shards on two workers dump what one shard does;
- a dump is a bounded slice of the event ring, taken only while the
  ring is kept;
- the event ring surfaces overflow through the registry
  (``telemetry.events_dropped``);
- ``repro telemetry metrics --prefix`` filters the table and the JSON
  views identically;
- ``diagnose_fleet_flow`` resolves one flow's timeline out of a shared
  censor without aliasing (namespaced connection keys);
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
    shard = make_span("shard[2]", "shard", children=[trial_b, trial_a])
    sweep = make_span("cell:x", "cell", children=[shard])
    reduced = trial_semantic([sweep])
    assert len(reduced) == 1
    cell = reduced[0]
    # Wall fields are gone, the shard wrapper is hoisted away, and the
    # out-of-order siblings are canonically sorted.
    assert "wall_end" not in cell
    assert [c["name"] for c in cell["children"]] == ["trial:a", "trial:b"]


# -- serial vs sharded span parity (acceptance) -------------------------


def _run_traced_matrix(shards):
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
        # Two workers when sharded, so the shards really run in pool
        # processes, forked mid-sweep under the open sweep span.
        shutdown_pool()
        results = run_matrix(
            cells, repeats=4, seed=11, shards=shards,
            workers=2 if shards else 1,
        )
        return results, recorder.drain()["spans"]


@pytest.mark.slow
def test_span_forest_serial_vs_sharded_semantic_identity():
    serial_results, serial_trees = _run_traced_matrix(shards=None)
    sharded_results, sharded_trees = _run_traced_matrix(shards=2)
    # The verdicts were already pinned identical by the conformance
    # tests; the new contract is the span forests.
    assert {k: r.as_payload() for k, r in serial_results.items()} == {
        k: r.as_payload() for k, r in sharded_results.items()
    }
    # The workers' shard spans reached the parent's forest.
    (sharded_sweep,) = sharded_trees
    assert [c["kind"] for c in sharded_sweep["children"]] == ["shard"] * 2
    serial_semantic = trial_semantic(serial_trees)
    sharded_semantic = trial_semantic(sharded_trees)
    assert serial_semantic == sharded_semantic
    assert serial_semantic  # non-vacuous: spans were actually recorded
    kinds = {node["kind"] for node in serial_semantic}
    assert "cell" in kinds

    # The sharded forest must export as valid Chrome trace-event JSON.
    document = chrome_trace(sharded_trees)
    text = json.dumps(document)
    parsed = json.loads(text)
    assert parsed["traceEvents"], "trace export produced no events"
    for event in parsed["traceEvents"]:
        assert event["ph"] == "X"
        assert {"name", "ts", "dur", "pid", "tid"} <= set(event)


def test_worker_spans_reach_a_parent_that_forked_mid_sweep():
    """A pool created under an open sweep span forks that span into its
    workers; their shard and cell spans must still come back."""
    from repro.conformance import default_cells
    from repro.conformance.matrix import _cell_worker
    from repro.experiments.parallel import run_sharded, shutdown_pool

    cells = default_cells(
        strategies=["tcb-teardown-rst/ttl"], variants=["evolved"],
        profiles=["neutral", "aliyun"], faults=["clean"],
    )
    shutdown_pool()
    with observing(SPANS) as recorder:
        with recorder.span("sweep", "sweep"):
            run_sharded(
                _cell_worker, [(cell, 1, 3) for cell in cells],
                shards=2, workers=2,
            )
        (sweep,) = recorder.drain()["spans"]
    shards = sweep["children"]
    assert [shard["kind"] for shard in shards] == ["shard", "shard"]
    assert sorted(
        cell["name"] for shard in shards for cell in shard["children"]
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
        result = run_fleet(spec, shards=1)
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


#: The CI ``obs flight`` fleet shape (known blacklist false positives).
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

    serial = _fleet_dumps(shards=1)
    # A fresh pool forks from a parent whose ring still holds the serial
    # run's events: those must not leak into the workers' dumps.
    shutdown_pool()
    sharded = _fleet_dumps(shards=2, workers=2)
    assert serial, "the CI shape produced no dumps"
    assert sharded == serial


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


def test_metrics_cli_prefix_filters_json_and_table(capsys):
    from repro.cli import main

    rc = main(
        [
            "telemetry", "metrics", "--json", "--prefix", "dpi.",
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


# -- shared-censor flow diagnosis (satellite) ---------------------------


@pytest.mark.slow
def test_diagnose_fleet_flow_is_namespace_exact():
    from repro.experiments.fleet import FleetSpec
    from repro.telemetry import diagnose_fleet_flow

    spec = FleetSpec(flows=24, groups=2, window=8, sites=6, seed=13)
    index = 7  # group 1 under index % groups
    diagnosis = diagnose_fleet_flow(spec, index)
    assert diagnosis.flow.index == index
    assert diagnosis.group_result.group == index % spec.groups
    assert diagnosis.events, "no events attributed to the flow"
    # Namespacing is exact: every attributed event carries the target
    # flow's identity, never a pooled-scenario alias.
    for event in diagnosis.events:
        assert index in (
            event.fields.get("namespace"), event.fields.get("flow")
        )
    rendered = diagnosis.render()
    assert f"#{index}" in rendered

    with pytest.raises(ValueError):
        diagnose_fleet_flow(spec, spec.flows)


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
