"""Heap-scheduled simulator core and per-cell scenario reuse.

Three contracts from the perf PR are pinned here:

1. the heapq event queue fires in (time, FIFO) order, including events
   scheduled from inside other events and cancelled handles — checked
   against a brute-force reference queue on hypothesis-random workloads;
2. the precomputed per-direction visit schedule matches the legacy
   sort-and-filter scan for arbitrary topologies, and is rebuilt only on
   invalidation (the ``netsim.schedule_rebuilds`` counter);
3. scenario reuse is invisible: a reused scenario replays the exact RNG
   draw sequence, so its trials — down to the packet ladder — are
   byte-identical to a from-scratch build, with the knob on or off and
   for any worker count.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.network import Path
from repro.netsim.path import Direction, Tap
from repro.netsim.simclock import SimClock
from repro.telemetry.metrics import get_registry


# ---------------------------------------------------------------------------
# 1. heap scheduler vs reference queue
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.integers(0, 50), min_size=1, max_size=25),
    cancels=st.lists(st.booleans(), min_size=25, max_size=25),
    child_delay=st.integers(0, 20),
)
def test_simclock_order_matches_reference_queue(delays, cancels, child_delay):
    clock = SimClock()
    fired = []

    def callback(tag):
        fired.append((clock.now, tag))
        if tag < 1000 and tag % 5 == 0:
            # Re-entrant scheduling from inside a firing event.
            clock.schedule(child_delay / 1000.0, callback, 1000 + tag)

    handles = [
        clock.schedule(delay / 1000.0, callback, index)
        for index, delay in enumerate(delays)
    ]
    for handle, cancel in zip(handles, cancels):
        if cancel:
            handle.cancel()
    clock.run()

    # Reference: a brute-force stable priority queue over (time, seq).
    pending = [
        [delay / 1000.0, seq, seq, cancels[seq]]
        for seq, delay in enumerate(delays)
    ]
    next_seq = len(delays)
    expected = []
    while pending:
        pending.sort(key=lambda entry: (entry[0], entry[1]))
        time, _seq, tag, cancelled = pending.pop(0)
        if cancelled:
            continue
        expected.append((time, tag))
        if tag < 1000 and tag % 5 == 0:
            pending.append([time + child_delay / 1000.0, next_seq, 1000 + tag, False])
            next_seq += 1
    assert fired == expected


def test_simclock_run_until_is_inclusive_and_resumable():
    clock = SimClock()
    fired = []
    for delay in (0.5, 1.0, 1.5):
        clock.schedule(delay, fired.append, delay)
    clock.run(until=1.0)
    assert fired == [0.5, 1.0]
    assert clock.now == 1.0
    clock.run()
    assert fired == [0.5, 1.0, 1.5]


def test_simclock_reset_clears_pending_events():
    clock = SimClock()
    fired = []
    clock.schedule(1.0, fired.append, "stale")
    clock.run(until=0.2)
    clock.reset()
    assert clock.now == 0.0
    assert clock.pending() == 0
    clock.schedule(0.1, fired.append, "fresh")
    clock.run()
    assert fired == ["fresh"]


# ---------------------------------------------------------------------------
# 2. precomputed visit schedules
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    hop_count=st.integers(2, 12),
    element_hops=st.lists(st.integers(1, 11), max_size=6),
    origin=st.integers(0, 12),
    client_to_server=st.booleans(),
)
def test_travel_plan_matches_legacy_scan(
    hop_count, element_hops, origin, client_to_server
):
    path = Path(
        client_ip="10.0.0.1", server_ip="10.0.0.2",
        hop_count=hop_count, base_delay=0.01,
    )
    for index, hop in enumerate(element_hops):
        hop = min(hop, hop_count - 1)
        path.add_element(Tap(f"tap{index}", hop))
    origin = min(origin, hop_count)
    direction = (
        Direction.CLIENT_TO_SERVER if client_to_server
        else Direction.SERVER_TO_CLIENT
    )

    plan, start = path.travel_plan(origin, direction)

    # Legacy oracle: stable sort by hop, filter strictly ahead of origin.
    forward = sorted(path.elements, key=lambda element: element.hop)
    if direction is Direction.CLIENT_TO_SERVER:
        expected = [element for element in forward if element.hop > origin]
    else:
        expected = [
            element for element in reversed(forward) if element.hop < origin
        ]
    assert list(plan[start:]) == expected
    assert path.elements_ahead(origin, direction) == expected


def test_schedule_rebuilds_only_on_invalidation():
    registry = get_registry()

    def rebuilds():
        return registry.counter_value("netsim.schedule_rebuilds")

    path = Path(client_ip="10.0.0.1", server_ip="10.0.0.2", hop_count=10)
    path.add_element(Tap("tap-a", 4))
    base = rebuilds()

    path.travel_plan(0, Direction.CLIENT_TO_SERVER)
    assert rebuilds() == base + 1
    # Any number of plans off the cached schedule is free.
    for origin in range(10):
        path.travel_plan(origin, Direction.CLIENT_TO_SERVER)
        path.travel_plan(origin, Direction.SERVER_TO_CLIENT)
    assert rebuilds() == base + 1

    path.add_element(Tap("tap-b", 7))
    path.travel_plan(0, Direction.CLIENT_TO_SERVER)
    assert rebuilds() == base + 2

    path.drift_client_side(+1)
    path.travel_plan(0, Direction.CLIENT_TO_SERVER)
    assert rebuilds() == base + 3

    path.reconfigure(hop_count=12, base_delay=0.05, loss_rate=0.0)
    path.travel_plan(0, Direction.SERVER_TO_CLIENT)
    assert rebuilds() == base + 4

    path.clear_elements()
    path.travel_plan(0, Direction.CLIENT_TO_SERVER)
    assert rebuilds() == base + 5


# ---------------------------------------------------------------------------
# 3. scenario reuse parity
# ---------------------------------------------------------------------------
def _vantage_and_site():
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    return CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=2)[0]


def _drive_http(scenario, website):
    from repro.apps.http import HTTPClient
    from repro.experiments.runner import SENSITIVE_PATH

    client = HTTPClient(scenario.client_tcp)
    _conn, exchange = client.get(
        website.ip, host=website.name, path=SENSITIVE_PATH
    )
    scenario.run()
    return (
        exchange.got_response,
        scenario.gfw_resets_received(),
        scenario.gfw_detections(),
        scenario.trace.format_ladder(),
    )


def test_scenario_reset_is_byte_identical_to_fresh_build():
    from repro.experiments.scenarios import build_scenario

    vantage, website = _vantage_and_site()
    fresh = _drive_http(
        build_scenario(vantage, website, seed=41, trace=True), website
    )

    warm = build_scenario(vantage, website, seed=13, trace=True)
    _drive_http(warm, website)  # dirty every reusable object
    reused_scenario = warm.reset(41)
    assert reused_scenario.clock is warm.clock
    assert reused_scenario.network is warm.network
    assert reused_scenario.client_tcp is warm.client_tcp
    assert _drive_http(reused_scenario, website) == fresh


def test_runner_parity_with_reuse_knob_on_and_off(monkeypatch):
    from repro.experiments import scenarios
    from repro.experiments.runner import _simulate_http_trial

    vantage, website = _vantage_and_site()
    registry = get_registry()
    records = {}
    reused = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_SCENARIO_REUSE", flag)
        scenarios.clear_scenario_pool()
        before = registry.counter_value("scenario.reused")
        out = []
        for strategy in (None, "tcb-teardown-rst/ttl"):
            for seed in range(6):
                record, scenario = _simulate_http_trial(
                    vantage, website, strategy, seed=seed
                )
                out.append((
                    record.outcome, record.strategy_id, record.drift,
                    record.detections, record.diagnosis,
                    scenario.gfw_resets_received(),
                ))
                scenarios.release_scenario(scenario)
        records[flag] = out
        reused[flag] = registry.counter_value("scenario.reused") - before
    scenarios.clear_scenario_pool()
    assert records["0"] == records["1"]
    # Every trial after the first ran on a pooled, reused topology.
    assert reused == {"0": 0, "1": 11}


def test_cell_parity_serial_vs_workers_with_reuse(monkeypatch):
    from repro.experiments import result_cache, scenarios
    from repro.experiments.runner import run_strategy_cell
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    monkeypatch.setenv("REPRO_SCENARIO_REUSE", "1")
    scenarios.clear_scenario_pool()
    vantages = CHINA_VANTAGE_POINTS[:2]
    sites = outside_china_catalog(count=2)
    serial = run_strategy_cell(
        "tcb-teardown-rst/ttl", vantages, sites, repeats=1, seed=3, workers=0
    )
    result_cache.clear()
    parallel = run_strategy_cell(
        "tcb-teardown-rst/ttl", vantages, sites, repeats=1, seed=3, workers=2
    )
    assert serial == parallel


def test_acquire_scenario_pools_per_cell(monkeypatch):
    from repro.experiments.scenarios import (
        acquire_scenario,
        clear_scenario_pool,
        release_scenario,
    )

    monkeypatch.setenv("REPRO_SCENARIO_REUSE", "1")
    vantage, website = _vantage_and_site()
    registry = get_registry()
    clear_scenario_pool()
    built = registry.counter_value("scenario.built")
    reused = registry.counter_value("scenario.reused")

    first = acquire_scenario(vantage, website=website, seed=1)
    release_scenario(first)
    second = acquire_scenario(vantage, website=website, seed=2)
    assert second.clock is first.clock
    assert second.network is first.network
    assert second.path is first.path
    assert registry.counter_value("scenario.built") == built + 1
    assert registry.counter_value("scenario.reused") == reused + 1

    # Traced trials stay fully isolated from the pool.
    traced = acquire_scenario(vantage, website=website, seed=3, trace=True)
    assert traced.clock is not first.clock

    # The knob falls back to plain builds.
    monkeypatch.setenv("REPRO_SCENARIO_REUSE", "0")
    plain = acquire_scenario(vantage, website=website, seed=4)
    assert plain.clock is not first.clock
    clear_scenario_pool()


def test_path_reconfigure_threads_and_validates_jitter():
    path = Path(
        client_ip="10.0.0.1", server_ip="10.0.0.2",
        hop_count=5, base_delay=0.01,
    )
    path.reconfigure(hop_count=6, base_delay=0.02, loss_rate=0.1, jitter=0.25)
    assert path.jitter == 0.25
    assert path.loss_rate == 0.1
    # Omitting jitter resets it: a pooled path configured for a jittery
    # cell must not leak delay noise into the next cell.
    path.reconfigure(hop_count=6, base_delay=0.02, loss_rate=0.0)
    assert path.jitter == 0.0
    with pytest.raises(ValueError):
        path.reconfigure(hop_count=6, base_delay=0.02, loss_rate=0.0,
                         jitter=1.0)
    with pytest.raises(ValueError):
        path.reconfigure(hop_count=6, base_delay=0.02, loss_rate=0.0,
                         jitter=-0.1)
    with pytest.raises(ValueError):
        path.reconfigure(hop_count=1, base_delay=0.02, loss_rate=0.0)
    assert path.jitter == 0.0  # failed reconfigure leaves state intact


def test_runner_parity_with_reuse_under_loss_and_jitter(monkeypatch):
    """Extends the zero-fault parity pin above to a degraded path: same
    seed => identical outcome with scenario reuse on or off, at nonzero
    loss *and* jitter (the conformance fault grid), under a forced GFW
    model variant."""
    from repro.experiments import scenarios
    from repro.experiments.calibration import CLEAN_ROOM
    from repro.experiments.runner import _simulate_http_trial

    lossy = CLEAN_ROOM.variant(base_loss_rate=0.08, path_jitter=0.15)
    vantage, website = _vantage_and_site()
    registry = get_registry()
    records = {}
    reused = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_SCENARIO_REUSE", flag)
        scenarios.clear_scenario_pool()
        before = registry.counter_value("scenario.reused")
        out = []
        for seed in range(8):
            record, scenario = _simulate_http_trial(
                vantage, website, "tcb-teardown-rst/ttl", lossy,
                seed=seed, gfw_variant="evolved-nb3-off",
            )
            out.append((
                record.outcome, record.detections, record.diagnosis,
                scenario.gfw_resets_received(),
                scenario.path.loss_rate, scenario.path.jitter,
            ))
            scenarios.release_scenario(scenario)
        records[flag] = out
        reused[flag] = registry.counter_value("scenario.reused") - before
    scenarios.clear_scenario_pool()
    assert records["0"] == records["1"]
    assert reused == {"0": 0, "1": 7}
    # The fault knobs actually reached the path on every build.
    assert all(row[-2] == 0.08 and row[-1] == 0.15 for row in records["1"])


def test_lossy_ladder_is_seed_deterministic():
    """Same seed => byte-identical packet ladder even with loss and
    jitter draws in play (golden-ladder prerequisite)."""
    from repro.experiments.calibration import CLEAN_ROOM
    from repro.experiments.runner import _simulate_http_trial

    lossy = CLEAN_ROOM.variant(base_loss_rate=0.08, path_jitter=0.15)
    vantage, website = _vantage_and_site()
    ladders = []
    for _ in range(2):
        record, scenario = _simulate_http_trial(
            vantage, website, "resync-desync", lossy,
            seed=23, trace=True, gfw_variant="evolved",
        )
        ladders.append((record.outcome, scenario.trace.format_ladder()))
    assert ladders[0] == ladders[1]
    assert ladders[0][1]  # the trace actually recorded something


def test_reused_host_handler_order_matches_fresh(monkeypatch):
    """INTANG, the sniffer, and the TCP stack must re-register in the
    same order on a reused host as on a fresh one."""
    from repro.experiments.scenarios import build_scenario

    vantage, website = _vantage_and_site()
    fresh = build_scenario(vantage, website, seed=9)
    names_fresh = [
        getattr(handler, "__qualname__", repr(handler))
        for handler in fresh.client._handlers
    ]
    warm = build_scenario(vantage, website, seed=5)
    reused = build_scenario(vantage, website, seed=9, reuse=warm)
    names_reused = [
        getattr(handler, "__qualname__", repr(handler))
        for handler in reused.client._handlers
    ]
    assert names_reused == names_fresh
