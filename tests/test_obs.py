"""Observability acceptance tests: spans, flight recorder, exporters.

Pins the PR-8 contracts:

- serial vs ``shards=2`` conformance runs produce span forests with
  identical trial-semantic content, and the sharded forest exports as
  valid Chrome trace-event JSON;
- a fleet shape with exactly one induced eviction false negative
  produces exactly one flight-recorder dump whose event ring names the
  evicting LRU transition and the evicted flow's namespaced key;
- the EventBus surfaces ring overflow through the registry
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

from repro.telemetry import events as events_module
from repro.telemetry import flight as flight_module
from repro.telemetry import trace as trace_module
from repro.telemetry.export import (
    chrome_trace,
    histogram_quantile,
    latency_summary,
    openmetrics,
)
from repro.telemetry.trace import (
    SpanTracer,
    get_tracer,
    make_span,
    trial_semantic,
)


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Every test starts and ends with pristine tracer/flight state."""
    trace_module.reset_tracer()
    flight_module._FLIGHT = None
    yield
    trace_module.reset_tracer()
    flight_module._FLIGHT = None


# -- SpanTracer unit behaviour ------------------------------------------


def test_tracer_disabled_is_inert():
    tracer = SpanTracer(enabled=False)
    assert tracer.begin("x", "trial") is None
    tracer.end(None)
    tracer.add(make_span("y", "trial"))
    assert tracer.drain() == []


def test_tracer_nesting_and_drain():
    tracer = SpanTracer(enabled=True)
    outer = tracer.begin("sweep", "sweep", cells=2)
    inner = tracer.begin("cell:a", "cell")
    tracer.end(inner, verdict="evades")
    tracer.end(outer)
    trees = tracer.drain()
    assert len(trees) == 1
    root = trees[0]
    assert root["name"] == "sweep"
    assert root["attrs"] == {"cells": 2}
    assert root["wall_end"] >= root["wall_start"]
    (child,) = root["children"]
    assert child["name"] == "cell:a"
    assert child["attrs"]["verdict"] == "evades"
    assert tracer.drain() == []


def test_tracer_end_recovers_leaked_children():
    """A child left open by an exception attaches under the closing
    ancestor instead of orphaning the stack."""
    tracer = SpanTracer(enabled=True)
    outer = tracer.begin("outer", "sweep")
    tracer.begin("leaked", "trial")  # never explicitly ended
    tracer.end(outer)
    (root,) = tracer.drain()
    assert [c["name"] for c in root["children"]] == ["leaked"]


def test_tracer_merge_works_while_disabled():
    """The parent of a sharded run may itself have tracing off; worker
    trees must still be collected (mirrors MetricsRegistry.merge)."""
    tracer = SpanTracer(enabled=False)
    tracer.merge([make_span("from-worker", "trial")])
    assert [t["name"] for t in tracer.roots] == ["from-worker"]


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

    cells = default_cells(
        strategies=["tcb-teardown-rst/ttl", "inorder-overlap/ttl"],
        variants=["evolved"],
        profiles=["neutral"],
        faults=["clean"],
    )
    tracer = trace_module.reset_tracer()
    tracer.enabled = True
    results = run_matrix(cells, repeats=4, seed=11, shards=shards)
    return results, tracer.drain()


@pytest.mark.slow
def test_span_forest_serial_vs_sharded_semantic_identity():
    serial_results, serial_trees = _run_traced_matrix(shards=None)
    sharded_results, sharded_trees = _run_traced_matrix(shards=2)
    # The verdicts were already pinned identical by the conformance
    # tests; the new contract is the span forests.
    assert {k: r.as_payload() for k, r in serial_results.items()} == {
        k: r.as_payload() for k, r in sharded_results.items()
    }
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


# -- flight recorder (acceptance) ---------------------------------------


#: The pinned anomalous fleet shape: exactly ONE eviction false
#: negative (and zero blacklist false positives, so exactly one dump).
EVICTION_FN_SPEC = dict(
    flows=24, groups=1, window=12, max_flows=11, sites=6, seed=1
)


@pytest.mark.slow
def test_flight_recorder_single_eviction_false_negative_dump():
    from repro.experiments.fleet import FleetSpec, run_fleet
    from repro.telemetry.flight import enable_flight, get_flight

    spec = FleetSpec(**EVICTION_FN_SPEC)
    enable_flight(True)
    try:
        get_flight().clear()
        result = run_fleet(spec, shards=1)
        dumps = get_flight().drain()
    finally:
        enable_flight(False)

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


# -- EventBus drop accounting (satellite) -------------------------------


def test_event_bus_drop_counter_reaches_registry():
    from repro.telemetry.metrics import get_registry

    registry = get_registry()
    before = registry.counter_value("telemetry.events_dropped")
    bus = events_module.EventBus(capacity=4, enabled=True)
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
