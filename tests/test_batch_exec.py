"""Tier-1 pins for batch-stepped execution.

The batch PR's correctness contract: multiplexing many trials through
one shared :class:`BatchSim` heap — and recycling packet/scenario
objects between them — must be observably identical to running the same
trials one at a time.  These tests pin that contract byte-for-byte
(records, cell rates, trial-semantic telemetry) and property-test the
heap's per-trial ordering invariant directly.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    map_trials,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments import scenarios
from repro.experiments.parallel import run_sharded
from repro.experiments.runner import (
    _run_http_batch_records,
    _simulate_http_trial,
)
from repro.netsim.batch import TRIAL_SHIFT, BatchSim
from repro.netsim.simclock import SimClock
from repro.netstack import packet as packet_mod
from repro.netstack.packet import (
    ACK,
    IPPacket,
    TCPSegment,
    clear_packet_pool,
    packet_pool_stats,
    recycle_packet,
)
from repro.telemetry.metrics import get_registry

from helpers import ENGINE_PREFIXES

VANTAGES = CHINA_VANTAGE_POINTS[:2]
SITES = outside_china_catalog(count=2)
STRATEGIES = ["none", "tcb-teardown-rst/ttl"]


def _square(task):
    """Module-level for picklability across pool workers."""
    return task * task


def _trial_tasks(seeds=3):
    return [
        (vantage, site, strategy, DEFAULT_CALIBRATION, seed, True)
        for strategy in STRATEGIES
        for vantage in VANTAGES
        for site in SITES
        for seed in range(seeds)
    ]


def _serial_records(tasks):
    records = []
    for vantage, site, strategy, calibration, seed, keyword in tasks:
        record, _scenario = _simulate_http_trial(
            vantage, site, strategy, calibration, seed=seed, keyword=keyword
        )
        records.append(record)
    return records


def _batched_records(tasks, window):
    records = []
    for begin in range(0, len(tasks), window):
        records.extend(_run_http_batch_records(tasks[begin : begin + window]))
    return records


def _trial_semantic(delta):
    """Strip execution-strategy counters from a telemetry delta.

    ``scenario.built/reused/evicted``, ``pool.*``, ``netsim.*`` and
    ``result_cache.*`` legitimately differ between serial and batched
    runs (they describe what the execution engine did, not what the
    simulated trial did); everything else — GFW, DPI, TCP, trial outcome
    metrics — must not.
    """
    counters = {
        name: value
        for name, value in delta["counters"].items()
        if not name.startswith(ENGINE_PREFIXES)
    }
    return counters, delta["histograms"]


class TestBatchParity:
    """Batched execution is byte-identical to serial execution."""

    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        scenarios.clear_scenario_pool()
        clear_packet_pool()
        yield
        scenarios.clear_scenario_pool()
        clear_packet_pool()

    def test_batched_records_identical_to_serial(self):
        tasks = _trial_tasks()
        serial = _serial_records(tasks)
        for window in (5, 16):  # uneven tail and the default window
            batched = _batched_records(tasks, window)
            assert [dataclasses.astuple(r) for r in batched] == [
                dataclasses.astuple(r) for r in serial
            ], f"record drift at window={window}"

    def test_batched_after_batched_stays_identical(self):
        # Pooled scenarios and recycled packet shells from a first batch
        # must not leak state into a second run of the same tasks.
        tasks = _trial_tasks(seeds=2)
        first = _batched_records(tasks, 16)
        second = _batched_records(tasks, 16)
        assert [dataclasses.astuple(r) for r in first] == [
            dataclasses.astuple(r) for r in second
        ]

    def test_trial_semantic_telemetry_identical(self):
        tasks = _trial_tasks(seeds=2)
        registry = get_registry()

        before = registry.snapshot()
        _serial_records(tasks)
        serial_delta = registry.diff(before)

        scenarios.clear_scenario_pool()
        before = registry.snapshot()
        _batched_records(tasks, 16)
        batched_delta = registry.diff(before)

        assert _trial_semantic(serial_delta) == _trial_semantic(batched_delta)

    def test_cell_rates_identical_across_execution_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")

        def cell(**kwargs):
            triple = run_strategy_cell(
                "tcb-teardown-rst/ttl", VANTAGES, SITES, repeats=2, **kwargs
            )
            return (triple.success, triple.failure1, triple.failure2, triple.trials)

        monkeypatch.setenv("REPRO_BATCH_TRIALS", "1")
        serial = cell(workers=1)
        monkeypatch.delenv("REPRO_BATCH_TRIALS")
        assert cell(workers=1) == serial
        assert cell(workers=2) == serial
        assert cell(workers=2, shards=2) == serial


class TestBatchSimOrdering:
    """The shared heap's trial-id tagging and horizon invariants."""

    def test_adopt_requires_fresh_clock(self):
        batch = BatchSim()
        dirty = SimClock()
        dirty.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            batch.adopt(dirty)
        clean = SimClock()
        assert batch.adopt(clean) == 0
        with pytest.raises(RuntimeError):
            batch.adopt(clean)
        batch.release()

    def test_seq_ranges_are_disjoint_per_trial(self):
        batch = BatchSim()
        clocks = [SimClock() for _ in range(3)]
        for tid, clock in enumerate(clocks):
            assert batch.adopt(clock) == tid
            assert clock._seq == tid << TRIAL_SHIFT
        batch.release()

    def test_per_trial_horizons(self):
        batch = BatchSim()
        fired = []
        clocks = [SimClock(), SimClock()]
        for tid, clock in enumerate(clocks):
            batch.adopt(clock)
            clock.schedule(1.0, fired.append, (tid, 1.0))
            clock.schedule(5.0, fired.append, (tid, 5.0))
        batch.run([2.0, 10.0])
        batch.release()
        # Trial 0's t=5 event is past its own horizon: dropped, exactly
        # as the serial loop would have left it queued and never fired.
        assert fired == [(0, 1.0), (1, 1.0), (1, 5.0)]
        assert clocks[0].now == 2.0 and clocks[1].now == 10.0

    def test_lowered_horizon_stops_only_that_trial(self):
        """An event lowering its own clock's ``_run_until`` stops that
        trial at the same event and the same ``now`` as the serial loop;
        the other adopted trials run to their horizons as before."""

        def schedule(clock, fired, stopper):
            def stop():
                fired.append("stop")
                clock._run_until = clock.now

            clock.schedule(0.5, fired.append, "early")
            if stopper:
                clock.schedule(1.0, stop)
            clock.schedule(1.0, fired.append, "same-instant")
            clock.schedule(2.0, fired.append, "late")

        serial_fired = []
        serial = SimClock()
        schedule(serial, serial_fired, stopper=True)
        serial.run(until=10.0)

        batch = BatchSim()
        clocks = [SimClock() for _ in range(3)]
        fired = [[] for _ in clocks]
        for tid, clock in enumerate(clocks):
            batch.adopt(clock)
            schedule(clock, fired[tid], stopper=(tid == 1))
        batch.run(10.0)
        batch.release()
        assert fired[1] == serial_fired == ["early", "stop", "same-instant"]
        assert clocks[1].now == serial.now == 1.0
        for tid in (0, 2):
            assert fired[tid] == ["early", "same-instant", "late"]
            assert clocks[tid].now == 10.0

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_trials_never_reorder_within_a_trial(self, trial_times):
        """Property: per-trial firing order == serial firing order.

        Events from different trials interleave freely in the shared
        heap (including exact time ties across trials), but within one
        trial the order must be nondecreasing time with scheduling-order
        tie-breaks — byte-identical to a private clock.
        """
        batch = BatchSim()
        fired = {tid: [] for tid in range(len(trial_times))}
        for tid, times in enumerate(trial_times):
            clock = SimClock()
            batch.adopt(clock)
            for index, tenths in enumerate(times):
                clock.schedule(tenths / 10.0, fired[tid].append, index)
        executed = batch.run(until=100.0)
        batch.release()
        assert executed == sum(len(times) for times in trial_times)
        for tid, times in enumerate(trial_times):
            expected = [
                index
                for index, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))
            ]
            assert fired[tid] == expected


class TestMapTrialsEdgeCases:
    """Chunk-size arithmetic at the degenerate ends of the task range."""

    def test_zero_tasks(self):
        assert map_trials(_square, [], workers=4) == []

    def test_single_task(self):
        assert map_trials(_square, [7], workers=4) == [49]

    def test_fewer_tasks_than_workers(self):
        # workers clamp to the task count; order is still preserved.
        assert map_trials(_square, [0, 1, 2], workers=4) == [0, 1, 4]

    def test_run_sharded_matches_serial_map(self):
        tasks = list(range(11))
        expected = [task * task for task in tasks]
        assert run_sharded(_square, tasks, shards=3, workers=2) == expected
        assert run_sharded(_square, tasks, shards=1, workers=2) == expected

    def test_run_sharded_more_shards_than_tasks(self):
        assert run_sharded(_square, [2, 3], shards=5, workers=2) == [4, 9]


class TestScenarioPoolBounds:
    """The LRU-bounded scenario pool and its eviction counter."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        scenarios.clear_scenario_pool()
        yield
        scenarios.clear_scenario_pool()

    def test_lru_eviction_bounds_pool_and_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_POOL_MAX", "2")
        sites = outside_china_catalog(count=3)
        evicted = get_registry().counter("scenario.evicted")
        before = evicted.value
        leased = [
            scenarios.acquire_scenario(
                CHINA_VANTAGE_POINTS[0], website=site, seed=0
            )
            for site in sites
        ]
        first_key = leased[0]._pool_key
        for scenario in leased:
            scenarios.release_scenario(scenario)
        assert scenarios.scenario_pool_size() == 2
        assert evicted.value - before == 1
        # Least-recently-released key is the one evicted.
        assert first_key not in scenarios._SCENARIO_POOL

    def test_pool_max_zero_keeps_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_POOL_MAX", "0")
        scenario = scenarios.acquire_scenario(
            CHINA_VANTAGE_POINTS[0], website=SITES[0], seed=0
        )
        scenarios.release_scenario(scenario)
        assert scenarios.scenario_pool_size() == 0

    def test_release_without_pool_key_is_dropped(self):
        scenario = scenarios.build_scenario(
            CHINA_VANTAGE_POINTS[0], website=SITES[0], seed=0
        )
        scenarios.release_scenario(scenario)
        assert scenarios.scenario_pool_size() == 0


class TestPacketPool:
    """Free-list recycling of packet/segment shells."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        clear_packet_pool()
        yield
        clear_packet_pool()

    def _packet(self):
        segment = TCPSegment(
            src_port=40000, dst_port=80, seq=9, ack=4, flags=ACK,
            payload=b"GET / HTTP/1.1", options=[(8, b"\x00" * 10)],
        )
        return IPPacket(src="10.0.0.1", dst="1.2.3.4", payload=segment, ttl=64)

    def test_recycle_then_copy_reuses_shells(self):
        packet = self._packet()
        segment = packet.payload
        recycle_packet(packet)
        stats = packet_pool_stats()
        assert stats["recycled"] == 2
        assert stats["free_segments"] == 1 and stats["free_packets"] == 1
        # Recycled shells pin no trial state.
        assert segment.payload == b"" and segment.options == []
        assert packet.payload == b"" and packet.meta is None

        source = self._packet()
        copy = source.payload.copy()
        assert copy is segment  # the pooled shell, reissued
        assert copy.payload == source.payload.payload
        assert copy.seq == source.payload.seq
        assert packet_pool_stats()["reused"] == 1
        assert packet_pool_stats()["free_segments"] == 0

    def test_knob_off_disables_recycling(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKET_POOL", "0")
        recycle_packet(self._packet())
        stats = packet_pool_stats()
        assert stats["recycled"] == 0
        assert stats["free_segments"] == 0 and stats["free_packets"] == 0

    def test_cap_bounds_free_lists(self, monkeypatch):
        monkeypatch.setattr(packet_mod, "_POOL_CAP", 1)
        recycle_packet(self._packet())
        recycle_packet(self._packet())
        stats = packet_pool_stats()
        assert stats["free_segments"] == 1 and stats["free_packets"] == 1

    def test_copy_without_pool_is_unaffected(self):
        source = self._packet()
        copy = source.payload.copy()
        assert copy is not source.payload
        assert copy.payload == source.payload.payload
        assert packet_pool_stats()["reused"] == 0
