"""Tier-1 pins for the stop rule: a measured HTTP trial
(``run_http_trial``) ends once its record is final
(``Scenario.record_final``).

Soundness is checked, not argued: every conformance cell, a Table-1
slice and a Table-4 INTANG-row slice must give equal
:class:`TrialRecord`s from ``run_http_trial`` and from the full-horizon
``observe_http_trial``, and each condition of the predicate is flipped
alone in a unit test.  Callers that read the scenario beyond the
record (the inconsistency counters, ``diagnose_trial``'s timeline, the
golden ladders) must still see the full horizon, and fleet waves must
never arm the stop.
"""

from dataclasses import replace

import pytest

from repro.analysis.inconsistency import _inconsistency_cell_worker, lab_vantages
from repro.conformance.golden import (
    capture_ladder,
    golden_cells,
    golden_dir,
    ladder_filename,
)
from repro.conformance.matrix import (
    DEFAULT_SEED,
    cell_calibration,
    conformance_site,
    default_cells,
    profile_vantage,
)
from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments import fleet
from repro.experiments.calibration import CLEAN_ROOM
from repro.experiments import runner
from repro.experiments.runner import (
    Outcome,
    _cell_tasks,
    make_persistent_selector,
    observe_http_trial,
    run_http_trial,
    trial_seed,
)
from repro.experiments.scenarios import build_scenario, release_scenario
from repro.gfw.flow import GFWFlow, GFWFlowState
from repro.gfw.heterogeneity import HETEROGENEOUS_VARIANT
from repro.gfw.models import Installation
from repro.netstack.fragment import make_fragment
from repro.netstack.packet import ACK, IPPacket, TCPSegment
from repro.strategies.registry import TABLE1_ROWS
from repro.telemetry import diagnose_trial
from repro.telemetry import EVENTS, observing
from repro.telemetry.metrics import get_registry
from repro.tcp.tcb import TCPState

STOPPED = "trials.stopped_at_verdict"


def _stopped_count() -> int:
    return get_registry().counter_value(STOPPED)


def _trial_record(*args, stop, **kwargs):
    """One trial's record: measured by ``run_http_trial`` (``stop``) or
    run to the horizon by ``observe_http_trial``."""
    if stop:
        return run_http_trial(*args, **kwargs)
    with observe_http_trial(*args, **kwargs) as (record, _scenario):
        return record


def _records(tasks, stop, gfw_variant=None):
    """The trials' records, stopped at their verdict or not."""
    return [
        _trial_record(
            vantage, site, strategy_id, calibration, seed=seed,
            keyword=keyword, gfw_variant=gfw_variant, stop=stop,
        )
        for vantage, site, strategy_id, calibration, seed, keyword in tasks
    ]


def _released(monkeypatch, read):
    """Call ``read(scenario)`` on each scenario the runner releases from
    now on, before it is disposed; returns the list of what it read."""
    seen = []
    release = runner.release_scenario

    def reading_release(scenario):
        seen.append(read(scenario))
        release(scenario)

    monkeypatch.setattr(runner, "release_scenario", reading_release)
    return seen


def _conformance_records(repeats, stop):
    site = conformance_site()
    records = []
    for cell in default_cells():
        tasks = [
            (
                profile_vantage(cell.profile), site, cell.strategy_id,
                cell_calibration(cell.fault),
                (DEFAULT_SEED * 1_000_003 + repeat) ^ cell.seed_salt(), True,
            )
            for repeat in range(repeats)
        ]
        records.extend(_records(tasks, stop, gfw_variant=cell.gfw_variant))
    return records


def _assert_stop_is_sound(full, stopped, stops):
    assert len(full) == len(stopped)
    drift = [(a, b) for a, b in zip(full, stopped) if a != b]
    assert not drift, f"{len(drift)} records changed, first: {drift[0]}"
    assert stops > 0, "the stop never fired: the check has no teeth"
    assert stops == sum(record.stopped_at_verdict for record in stopped)
    assert not any(record.stopped_at_verdict for record in full)


def test_every_conformance_cell_same_records_with_and_without_the_stop():
    full = _conformance_records(repeats=2, stop=False)
    before = _stopped_count()
    stopped = _conformance_records(repeats=2, stop=True)
    _assert_stop_is_sound(full, stopped, _stopped_count() - before)
    assert len(full) == 2 * 924


def _table1_records(sites, keyword, seed, stop):
    records = []
    for _label, strategy_id, _discrepancy in TABLE1_ROWS:
        tasks = _cell_tasks(
            strategy_id, CHINA_VANTAGE_POINTS, sites,
            DEFAULT_CALIBRATION, 1, seed, keyword,
        )
        records.extend(_records(tasks, stop))
    return records


def _assert_table1_stop_is_sound(sites, keyword, seed):
    full = _table1_records(sites, keyword, seed, stop=False)
    before = _stopped_count()
    stopped = _table1_records(sites, keyword, seed, stop=True)
    # Benign requests are Success trials, which stop at their response.
    _assert_stop_is_sound(full, stopped, _stopped_count() - before)
    assert len(full) == 15 * len(CHINA_VANTAGE_POINTS) * len(sites)


@pytest.mark.parametrize("keyword", [True, False])
def test_table1_slice_same_records_with_and_without_the_stop(keyword):
    """Table-1 vantages bring client middleboxes, stateful firewalls and
    route drift, which the matrix's neutral profiles do not."""
    _assert_table1_stop_is_sound(outside_china_catalog(count=2), keyword, 11)


@pytest.mark.slow
def test_paper_scale_records_same_with_and_without_the_stop():
    """924 cells x 6 repeats, plus Table 1 at n = 165 per row in both
    keyword modes."""
    full = _conformance_records(repeats=6, stop=False)
    before = _stopped_count()
    stopped = _conformance_records(repeats=6, stop=True)
    _assert_stop_is_sound(full, stopped, _stopped_count() - before)

    sites = outside_china_catalog(count=15)
    for keyword, seed in ((True, 7), (False, 8)):
        _assert_table1_stop_is_sound(sites, keyword, seed)


def _queue_forged_resets(device, scenario):
    """Put ``device``'s real reset volley toward the client on the clock's
    queue, as ``GFWDevice._punish`` does."""
    volley = device.injector.forged_resets(
        spoof_src=(scenario.server.ip, 80),
        toward=(scenario.client.ip, 40000),
        seq_base=0,
        ack_hint=0,
    )
    device.inject(volley)
    device.resets_injected += len(volley)


def _flow(believed_client, believed_server):
    return GFWFlow(
        believed_client=believed_client,
        believed_server=believed_server,
        state=GFWFlowState.ESTABLISHED,
    )


def _client_packet(scenario):
    return IPPacket(
        src=scenario.client.ip, dst=scenario.server.ip,
        payload=TCPSegment(src_port=40000, dst_port=80, flags=ACK),
    )


def _pending_fragment(scenario):
    return make_fragment(_client_packet(scenario), b"x" * 8, 0, True)


def test_record_final_needs_all_three_conditions():
    """Each Failure-2 condition is load-bearing on its own (the matrix
    never binds on the device latch, so pin it here), and a reset kind
    the client lacks blocks while it can still arrive."""
    scenario = build_scenario(
        CHINA_VANTAGE_POINTS[0], website=outside_china_catalog(count=1)[0],
        seed=0,
    )
    type2, type1 = scenario.gfw_devices
    assert (type2.config.reset_type, type1.config.reset_type) == (2, 1)
    # Both devices are evolved, so an unlatched one is never inert.
    assert type1.config.creates_tcb_on_synack
    type2.detections.append((0.1, "match"))
    type2.resets_injected = 3
    assert not scenario.record_final()  # no reset at the client yet
    scenario.gfw_packets_at_client.append("rst")
    scenario.reset_kinds.add("type2")
    assert not scenario.record_final()  # the type-1 device has not latched
    type1.missed_detections.append((0.1, "match"))
    assert scenario.record_final()  # a cluster miss latches it too
    _queue_forged_resets(type1, scenario)
    assert not scenario.record_final()  # its type-1 reset is still in flight
    scenario.run()
    assert "type1" in scenario.reset_kinds
    assert scenario.record_final()
    # A type-1 kind that never arrived, with none of its resets queued,
    # was lost: the device sends one volley per flow and keeps no
    # blacklist.
    scenario.reset_kinds.discard("type1")
    assert scenario.record_final()
    # A missing type-2 kind may still come: its blacklist re-injects.
    scenario.reset_kinds.discard("type2")
    assert not scenario.record_final()
    release_scenario(scenario)


def test_record_final_unlatched_device_must_be_inert():
    """An unlatched device stops blocking only when it can never open a
    TCB; each condition of that is load-bearing."""
    scenario = build_scenario(
        CHINA_VANTAGE_POINTS[0], website=outside_china_catalog(count=1)[0],
        seed=0, installation=Installation(variant="mixed"),
    )
    evolved, old = scenario.gfw_devices
    assert (evolved.config.model, old.config.model) == ("evolved", "old")
    evolved.detections.append((0.1, "match"))
    evolved.resets_injected = 3
    scenario.gfw_packets_at_client.append("rst")
    scenario.reset_kinds.add("type2")
    assert scenario.record_final()  # the old device is inert
    # NB1: a device that opens TCBs on a SYN/ACK may still open one.
    inert = old.config
    old.config = replace(inert, creates_tcb_on_synack=True)
    assert not scenario.record_final()
    old.config = inert
    key = ("held",)
    old.flows[key] = _flow((scenario.client.ip, 40000), (scenario.server.ip, 80))
    assert not scenario.record_final()  # it holds a TCB
    del old.flows[key]
    connection = scenario.client_tcp.connect(scenario.server.ip, 80)
    assert not scenario.record_final()  # its SYN is queued
    scenario.clock.reset()
    assert connection.state is TCPState.SYN_SENT
    assert not scenario.record_final()  # the client connection is open
    connection.abort()
    assert connection.state is TCPState.CLOSED
    assert not scenario.record_final()  # its RST is still queued
    scenario.clock.reset()
    assert scenario.record_final()
    old._fragments.add(_pending_fragment(scenario))
    assert not scenario.record_final()  # a pending fragment may complete
    release_scenario(scenario)


def test_record_final_success_needs_every_condition():
    """A completed response is final only while no device can see
    believed-client payload again; each condition is load-bearing."""
    with observe_http_trial(
        CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=1)[0], "none",
        DEFAULT_CALIBRATION, seed=0, keyword=False,
    ) as (record, scenario):
        _assert_success_final_conditions(record, scenario)


def _assert_success_final_conditions(record, scenario):
    assert record.outcome is Outcome.SUCCESS
    assert not scenario.record_final()  # the response was never noted
    scenario.response_complete = True
    assert scenario.record_final()

    device = scenario.gfw_devices[0]
    client, server = (scenario.client.ip, 40000), (scenario.server.ip, 80)
    for counter in ("resets_injected", "forged_synacks_injected"):
        setattr(device, counter, 1)
        assert not scenario.record_final()  # the device injected
        setattr(device, counter, 0)
    device.blacklist.add(client[0], server[0], scenario.clock.now)
    assert not scenario.record_final()
    device.blacklist.clear()

    key = ("extra",)
    device.flows[key] = _flow(server, client)
    assert not scenario.record_final()  # a reversed TCB inspects the server
    device.flows[key] = _flow(client, server)
    assert scenario.record_final()  # an ordinary one sees no more payload
    del device.flows[key]

    (connection,) = scenario.client_tcp.connections.values()
    entry = {"segment": TCPSegment(src_port=40000, dst_port=80, payload=b"GET"),
             "retries": 0}
    connection._unacked.append(entry)
    assert not scenario.record_final()  # unacked payload is retransmitted
    entry["segment"].payload = b""
    assert scenario.record_final()  # an unacked FIN carries none
    connection._unacked.remove(entry)

    scenario.network.send(scenario.client, _client_packet(scenario))
    assert not scenario.record_final()  # a client packet is in flight
    scenario.clock.reset()
    assert scenario.record_final()

    device._fragments.add(_pending_fragment(scenario))
    assert not scenario.record_final()  # a pending fragment may complete


def test_run_zero_fires_nothing_past_t0():
    scenario = build_scenario(
        CHINA_VANTAGE_POINTS[0], website=outside_china_catalog(count=1)[0],
        seed=0,
    )
    fired = []
    scenario.clock.schedule(0.0, fired.append, "t0")
    scenario.clock.schedule(0.5, fired.append, "later")
    scenario.run(0.0)
    assert fired == ["t0"]
    assert scenario.clock.now == 0.0
    release_scenario(scenario)


def test_stopped_counter_equal_serial_workers_and_sharded():
    vantages = CHINA_VANTAGE_POINTS[:2]
    sites = outside_china_catalog(count=2)

    def stops(**kwargs):
        before = _stopped_count()
        run_strategy_cell("none", vantages, sites, repeats=2, **kwargs)
        return _stopped_count() - before

    serial = stops(workers=1)
    assert serial > 0
    assert stops(workers=2) == serial
    assert stops(workers=3) == serial


def test_table4_intang_row_same_records_and_selector_state():
    """Table 4's INTANG row threads one persistent selector through a
    vantage's trials; stopping each at its record changes neither the
    records nor what the selector learns."""
    vantages = CHINA_VANTAGE_POINTS[:3]
    sites = outside_china_catalog(count=3)

    def row(stop):
        records, dumps = [], []
        for v_index, vantage in enumerate(vantages):
            selector = make_persistent_selector()
            for w_index, website in enumerate(sites):
                for repeat in range(2):
                    records.append(_trial_record(
                        vantage, website, None, DEFAULT_CALIBRATION,
                        seed=trial_seed(5, v_index, w_index, repeat, "intang"),
                        keyword=True, selector=selector, stop=stop,
                    ))
            dumps.append(selector.dump())
        return records, dumps

    full, full_dumps = row(stop=False)
    stopped, stopped_dumps = row(stop=True)
    _assert_stop_is_sound(
        full, stopped, sum(record.stopped_at_verdict for record in stopped)
    )
    assert stopped_dumps == full_dumps
    assert all(full_dumps)


# ---------------------------------------------------------------------------
# trial accounting
# ---------------------------------------------------------------------------
def _counts(names):
    registry = get_registry()
    return [registry.counter_value(name) for name in names]


def test_a_matrix_run_counts_every_trial_it_classifies():
    from repro.conformance.matrix import run_matrix

    names = ("trials.run", "trials.success", "trials.failure1", "trials.failure2")
    before = _counts(names)
    run_matrix(default_cells()[:5], repeats=6, workers=1)
    run, success, failure1, failure2 = (
        after - start for after, start in zip(_counts(names), before)
    )
    assert run == success + failure1 + failure2 == 5 * 6


def test_observed_and_measured_trials_each_count_one_run():
    args = (
        CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=1)[0], "none",
    )
    (before,) = _counts(["trials.run"])
    run_http_trial(*args)
    with observe_http_trial(*args, trace=True):
        pass
    assert _counts(["trials.run"]) == [before + 2]


# ---------------------------------------------------------------------------
# observers keep the full horizon
# ---------------------------------------------------------------------------
def _device_counters(scenario):
    totals = dict(resets=0, adds=0, expirations=0)
    for device in scenario.gfw_devices:
        device.blacklist.sweep(scenario.clock.now)
        totals["resets"] += device.resets_injected
        totals["adds"] += device.blacklist.total_blacklistings
        totals["expirations"] += device.blacklist.total_expirations
    return totals


def _summed(counters):
    return {key: sum(c[key] for c in counters) for key in counters[0]}


def test_inconsistency_cell_counters_equal_a_full_horizon_run(monkeypatch):
    from repro.analysis.inconsistency import _cell_salt

    vantage = lab_vantages(1)[0]
    website = conformance_site()
    hour, repeats, seed = 0.0, 4, 2017
    cell = _inconsistency_cell_worker(
        vantage, website, hour, "none", repeats, seed
    )
    salt = _cell_salt(vantage.name, hour, "none")
    seeds = [(seed * 1_000_003 + repeat) ^ salt for repeat in range(repeats)]
    calibration = CLEAN_ROOM.variant(sim_hour=hour)
    trial = dict(keyword=True, gfw_variant=HETEROGENEOUS_VARIANT)
    observed = []
    for repeat_seed in seeds:
        with observe_http_trial(
            vantage, website, "none", calibration, seed=repeat_seed, **trial
        ) as (_record, scenario):
            observed.append(_device_counters(scenario))
    full = _summed(observed)
    assert (
        cell.resets_injected, cell.blacklist_adds, cell.blacklist_expirations
    ) == (full["resets"], full["adds"], full["expirations"])
    # The full horizon is load-bearing: a measured run counts fewer resets.
    measured = _released(monkeypatch, _device_counters)
    records = [
        run_http_trial(
            vantage, website, "none", calibration, seed=repeat_seed, **trial
        )
        for repeat_seed in seeds
    ]
    assert any(record.stopped_at_verdict for record in records)
    assert _summed(measured)["resets"] < full["resets"]


def _event_rows(events):
    return [(e.time, e.component, e.kind, e.fields) for e in events]


def test_diagnose_trial_events_equal_a_full_horizon_run(monkeypatch):
    vantage = CHINA_VANTAGE_POINTS[0]
    website = outside_china_catalog(count=1)[0]
    trial = (vantage, website, "none", DEFAULT_CALIBRATION)
    diagnosis = diagnose_trial(*trial, seed=7)
    with observing(EVENTS) as bus:
        watermark = bus.next_seq
        with observe_http_trial(*trial, seed=7, trace=True):
            pass
        full = _event_rows(bus.events(since_seq=watermark - 1))
    assert _event_rows(diagnosis.events) == full
    # The measured trial stops before the timeline ends.
    stop_times = _released(monkeypatch, lambda scenario: scenario.clock.now)
    assert run_http_trial(*trial, seed=7).stopped_at_verdict
    (stopped_at,) = stop_times
    assert max(row[0] for row in full) > stopped_at


def test_capture_ladder_equals_the_full_horizon_golden(monkeypatch):
    cell = next(c for c in golden_cells() if c.strategy_id == "none")
    blessed = (golden_dir() / ladder_filename(cell)).read_text()
    assert capture_ladder(cell) == blessed
    (kwargs,) = cell.trial_kwargs(DEFAULT_SEED)
    # The measured trial stops before the ladder's last packet.
    stop_times = _released(monkeypatch, lambda scenario: scenario.clock.now)
    assert run_http_trial(**kwargs, keyword=True).stopped_at_verdict
    (stopped_at,) = stop_times
    with observe_http_trial(**kwargs, keyword=True, trace=True) as (
        _record, scenario,
    ):
        assert max(e.time for e in scenario.trace.events) > stopped_at


def test_fleet_waves_never_arm_the_stop(monkeypatch):
    armed = []
    release = fleet.release_scenario

    def recording_release(scenario):
        armed.append(scenario.stop_at_verdict or scenario.stopped_at_verdict)
        release(scenario)

    monkeypatch.setattr(fleet, "release_scenario", recording_release)
    before = _stopped_count()
    spec = fleet.FleetSpec(
        flows=48, groups=2, window=16, max_flows=24, sites=12, seed=99
    )
    result = fleet.run_fleet(spec, workers=1)
    assert len(armed) == 48
    assert not any(armed)
    assert _stopped_count() == before
    # Resets did reach fleet clients, so an armed stop could have fired.
    assert sum(tally.failure2 for tally in result.outcomes.values()) > 0
