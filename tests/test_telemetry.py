"""The telemetry layer: registry, event ring, instrumentation, diagnosis."""

import json

import pytest

from repro.telemetry import (
    EVENTS,
    OFF,
    SPANS,
    MetricsRegistry,
    Recorder,
    diagnose_trial,
    get_recorder,
    get_registry,
    observing,
    reset_recorder,
)

from repro.experiments.lab import KEYWORD_PATH, fetch, mini_topology
from helpers import detections


# ---------------------------------------------------------------------------
# Instruments and registry
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter_value("c") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_is_create_or_fetch(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_registered_lookup_builds_no_instrument(self, monkeypatch):
        from repro.telemetry import metrics

        registry = MetricsRegistry()
        counter, gauge = registry.counter("c"), registry.gauge("g")
        built = []
        for family in ("Counter", "Gauge"):
            monkeypatch.setattr(metrics, family, built.append)
        assert registry.counter("c") is counter
        assert registry.gauge("g") is gauge
        assert built == []
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.5)
        assert registry.gauge_value("g") == 2.5

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 20))
        for value in (5, 15, 25, 1000):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 2]  # last is the overflow bucket
        assert histogram.count == 4
        assert histogram.sum == 1045

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(10, 20))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2))

    def test_cross_type_name_reuse_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(3)
        registry.reset()
        assert counter.value == 0  # the cached reference stays valid
        counter.inc()
        assert registry.counter_value("c") == 1

    def test_format_table_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("gfw.a").inc()
        registry.counter("dpi.b").inc()
        table = registry.format_table("gfw.")
        assert "gfw.a" in table and "dpi.b" not in table


class TestSnapshots:
    def test_snapshot_is_json_representable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(10,)).observe(3)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_diff_reports_only_what_happened_since(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(10)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        delta = registry.diff(before)
        assert delta["counters"]["c"] == 3

    def test_diff_keeps_zero_entries_for_exact_merge_equality(self):
        registry = MetricsRegistry()
        registry.counter("quiet")
        delta = registry.diff(registry.snapshot())
        assert delta["counters"]["quiet"] == 0

    def test_merge_is_order_independent(self):
        def build(*deltas):
            registry = MetricsRegistry()
            for delta in deltas:
                registry.merge(delta)
            return registry.snapshot()

        a = {
            "counters": {"c": 2},
            "gauges": {"g": 1.0},
            "histograms": {
                "h": {"buckets": [10.0], "counts": [1, 0], "sum": 3.0, "count": 1}
            },
        }
        b = {
            "counters": {"c": 5, "d": 1},
            "gauges": {"g": 4.0},
            "histograms": {
                "h": {"buckets": [10.0], "counts": [0, 2], "sum": 60.0, "count": 2}
            },
        }
        assert build(a, b) == build(b, a)
        merged = build(a, b)
        assert merged["counters"] == {"c": 7, "d": 1}
        assert merged["gauges"] == {"g": 4.0}  # max, the order-free merge
        assert merged["histograms"]["h"]["counts"] == [1, 2]


# ---------------------------------------------------------------------------
# Event ring
# ---------------------------------------------------------------------------
class TestEventBus:
    def test_disabled_bus_publishes_nothing(self):
        for level in (OFF, SPANS):
            bus = Recorder(level=level)
            assert bus.publish("x", "y") is None
            assert len(bus) == 0

    def test_seq_is_monotonic_and_bus_wide(self):
        bus = Recorder(level=EVENTS)
        bus.publish("a", "k1")
        bus.publish("b", "k2")
        events = bus.events()
        assert [e.seq for e in events] == [0, 1]

    def test_ring_is_bounded_and_counts_drops(self):
        bus = Recorder(level=EVENTS, capacity=3)
        for index in range(5):
            bus.publish("c", "k", index=index)
        assert len(bus) == 3
        assert bus.dropped == 2
        # The survivors are the newest, and seq keeps counting.
        assert [e.fields["index"] for e in bus.events()] == [2, 3, 4]
        assert bus.next_seq == 5

    def test_filters(self):
        bus = Recorder(level=EVENTS)
        bus.publish("gfw", "rst_sent")
        bus.publish("gfw", "dpi_match")
        bus.publish("netsim", "send")
        assert len(bus.events(component="gfw")) == 2
        assert len(bus.events(kind="send")) == 1
        assert len(bus.events(component="gfw", kind="dpi_match")) == 1

    def test_capturing_restores_prior_state(self):
        bus = get_recorder()
        assert bus.level == OFF  # conftest resets to off
        with observing(EVENTS) as inner:
            assert inner is bus
            assert bus.events_on is True
        assert bus.level == OFF and bus.events_on is False
        # observing never lowers the level it finds.
        bus.level = EVENTS
        with observing(OFF):
            assert bus.events_on is True
        assert bus.level == EVENTS

    def test_event_format_mentions_component_and_fields(self):
        bus = Recorder(level=EVENTS)
        event = bus.publish("gfw", "resync_enter", time=0.25, cause="NB2a")
        line = event.format()
        assert "250.000ms" in line
        assert "gfw" in line and "resync_enter" in line and "cause=NB2a" in line


# ---------------------------------------------------------------------------
# Trace recorder determinism (satellite: (time, seq) ordering)
# ---------------------------------------------------------------------------
class TestTraceOrdering:
    def test_ladder_is_deterministic_under_time_ties(self):
        from repro.netsim.trace import TraceRecorder

        recorder = TraceRecorder()
        # Many events at the same instant, recorded in a known order.
        for index in range(8):
            recorder.record(0.001, f"loc{index}", "observe", None)
        recorder.record(0.0005, "early", "send", None)
        ladder = recorder.format_ladder()
        lines = ladder.splitlines()
        assert lines[0].split()[1] == "early"
        assert [line.split()[1] for line in lines[1:]] == [
            f"loc{index}" for index in range(8)
        ]
        # And it is stable across repeated renders.
        assert recorder.format_ladder() == ladder

    def test_trace_events_carry_monotonic_seq(self):
        from repro.netsim.trace import TraceRecorder

        recorder = TraceRecorder()
        for _ in range(3):
            recorder.record(0.0, "x", "send", None)
        assert [event.seq for event in recorder.events] == [0, 1, 2]

    def test_trace_forwards_to_bus_when_enabled(self):
        from repro.netsim.trace import TraceRecorder

        with observing(EVENTS) as bus:
            bus.clear()
            recorder = TraceRecorder()
            recorder.record(0.5, "gfw", "observe", None, note="hi")
            events = bus.events(component="netsim")
        assert len(events) == 1
        assert events[0].kind == "observe"
        assert events[0].fields["location"] == "gfw"


# ---------------------------------------------------------------------------
# GFW instrumentation through a real trial
# ---------------------------------------------------------------------------
class TestGFWInstrumentation:
    def test_baseline_fetch_counts_dpi_match_and_rsts(self):
        registry = get_registry()
        before = registry.snapshot()
        world = mini_topology(seed=5)
        exchange = fetch(world, path=KEYWORD_PATH)
        delta = registry.diff(before)["counters"]
        assert detections(world) >= 1
        assert not exchange.got_response
        assert delta.get("dpi.match", 0) == len(world.gfw.detections)
        assert delta.get("gfw.rst_sent", 0) == world.gfw.resets_injected > 0
        assert delta.get("gfw.tcb_created", 0) >= 1
        assert delta.get("gfw.bytes_inspected", 0) == world.gfw.bytes_inspected

    def test_state_transitions_publish_events(self):
        with observing(EVENTS) as bus:
            bus.clear()
            world = mini_topology(seed=5)
            fetch(world, path=KEYWORD_PATH)
            kinds = {event.kind for event in bus.events(component="gfw")}
        assert "tcb_create" in kinds
        assert "dpi_match" in kinds
        assert "rst_sent" in kinds

    def test_stats_shim_shape_unchanged(self):
        world = mini_topology(seed=5)
        fetch(world, path=KEYWORD_PATH)
        stats = world.gfw.stats()
        assert set(stats) == {
            "flows_tracked", "flows_created", "flows_evicted",
            "flows_evicted_active", "flows_evicted_after_fin",
            "peak_flows_tracked", "flow_table_capacity", "bytes_inspected",
            "matcher_state_bytes", "detections", "missed_detections",
            "resets_injected", "forged_synacks_injected",
        }
        assert all(isinstance(value, int) for value in stats.values())


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def _diagnosis_inputs():
    from repro.experiments import outside_china_catalog, vantage_by_name

    return vantage_by_name("aliyun-beijing"), outside_china_catalog(count=2)[0]


class TestDiagnoseTrial:
    def test_failure2_names_the_dpi_match(self, _diagnosis_inputs):
        vantage, website = _diagnosis_inputs
        diagnosis = diagnose_trial(vantage, website, "none", seed=3)
        assert diagnosis.record.outcome.value == "failure2"
        assert "dpi_match" in diagnosis.explanation()
        kinds = [event.kind for event in diagnosis.transitions()]
        assert "dpi_match" in kinds and "rst_sent" in kinds

    def test_timeline_interleaves_packets_and_state(self, _diagnosis_inputs):
        vantage, website = _diagnosis_inputs
        diagnosis = diagnose_trial(vantage, website, "none", seed=3)
        components = {event.component for event in diagnosis.events}
        assert "netsim" in components  # the packet ladder
        assert "gfw" in components     # the state transitions
        timeline = diagnosis.timeline()
        ordered = sorted(
            diagnosis.events, key=lambda event: (event.time, event.seq)
        )
        assert timeline.splitlines()[0] == ordered[0].format()

    def test_success_explanation_names_the_transition(self, _diagnosis_inputs):
        vantage, website = _diagnosis_inputs
        for seed in range(8):
            diagnosis = diagnose_trial(
                vantage, website, "resync-desync", seed=seed
            )
            if diagnosis.record.outcome.value == "success":
                assert "RESYNC" in diagnosis.explanation()
                break
        else:
            pytest.fail("resync-desync never succeeded in 8 seeds")

    def test_render_contains_all_sections(self, _diagnosis_inputs):
        vantage, website = _diagnosis_inputs
        diagnosis = diagnose_trial(vantage, website, "none", seed=3)
        rendered = diagnosis.render()
        assert "outcome : failure2" in rendered
        assert "timeline" in rendered
        assert "metrics delta" in rendered
        assert "dpi.match" in rendered

    def test_diagnosis_leaves_bus_disabled(self, _diagnosis_inputs):
        vantage, website = _diagnosis_inputs
        reset_recorder()
        diagnose_trial(vantage, website, "none", seed=3)
        assert get_recorder().level == OFF


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestTelemetryCLI:
    def test_diagnose_smoke(self, capsys):
        from repro.cli import main

        code = main(["telemetry", "diagnose", "--strategy", "none",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict" in out and "timeline" in out

    def test_metrics_json_and_baseline(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "snap.json"
        code = main([
            "telemetry", "metrics", "--sites", "2", "--seed", "3",
            "--format", "json", "--out", str(out_file), "--check-baseline",
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["counters"]["dpi.match"] > 0
        assert printed["counters"]["gfw.rst_sent"] > 0
        on_disk = json.loads(out_file.read_text())
        assert on_disk == printed

    def test_metrics_baseline_fails_without_detections(self, capsys):
        from repro.cli import main

        # An evading strategy keeps dpi.match at 0 on most seeds; the
        # check must then exit nonzero.  Run with a tiny sweep.
        from repro.telemetry.metrics import get_registry

        get_registry().reset()
        code = main([
            "telemetry", "metrics", "--sites", "1", "--repeats", "1",
            "--seed", "4", "--strategy", "tcb-teardown-rst/ttl",
            "--check-baseline",
        ])
        err = capsys.readouterr().err
        if code == 1:
            assert "FAILED" in err
        else:  # the strategy got caught on this seed; check still ran
            assert "baseline check ok" in err
