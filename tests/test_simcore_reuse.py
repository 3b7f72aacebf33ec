"""Heap-scheduled simulator core and seed-determined trials.

Three contracts are pinned here:

1. the heapq event queue fires in (time, FIFO) order, including events
   scheduled from inside other events and cancelled handles — checked
   against a brute-force reference queue on hypothesis-random workloads;
2. the precomputed per-direction visit schedule matches the legacy
   sort-and-filter scan for arbitrary topologies, and is rebuilt only on
   invalidation (the ``netsim.schedule_rebuilds`` counter);
3. a trial is a pure function of its seed: the same seed gives the same
   packet ladder, and a cell gives the same rates for any worker count.
"""

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

    path.clear_elements()
    path.travel_plan(0, Direction.CLIENT_TO_SERVER)
    assert rebuilds() == base + 4


# ---------------------------------------------------------------------------
# 3. seed-determined trials
# ---------------------------------------------------------------------------
def _vantage_and_site():
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    return CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=2)[0]


def test_cell_parity_serial_vs_workers():
    from repro.experiments.runner import run_strategy_cell
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    vantages = CHINA_VANTAGE_POINTS[:2]
    sites = outside_china_catalog(count=2)
    serial = run_strategy_cell(
        "tcb-teardown-rst/ttl", vantages, sites, repeats=1, seed=3, workers=0
    )
    parallel = run_strategy_cell(
        "tcb-teardown-rst/ttl", vantages, sites, repeats=1, seed=3, workers=2
    )
    assert serial == parallel


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
