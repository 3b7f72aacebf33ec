"""Tier-1 pins for the stop rule: an independent HTTP trial ends once
its record is final (``Scenario.record_final``).

Soundness is checked, not argued: every conformance cell, with and
without the stop, must give equal :class:`TrialRecord`s.  Callers that
read the scenario beyond the record (the inconsistency counters,
``diagnose_trial``'s timeline, the golden ladders) must still see the
full horizon, and fleet waves must never arm the stop.
"""

import dataclasses

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
from repro.experiments import fleet, scenarios
from repro.experiments.calibration import CLEAN_ROOM
from repro.experiments.runner import (
    _cell_tasks,
    _run_http_batch_records,
    _simulate_http_trial,
)
from repro.experiments.scenarios import build_scenario, release_scenario
from repro.gfw.heterogeneity import HETEROGENEOUS_VARIANT
from repro.strategies.registry import TABLE1_ROWS
from repro.telemetry import diagnose_trial
from repro.telemetry.events import capturing
from repro.telemetry.metrics import get_registry

STOPPED = "trials.stopped_at_verdict"


def _stopped_count() -> int:
    return get_registry().counter_value(STOPPED)


def _records(tasks, stop, gfw_variant=None):
    """Stopped: the production batched path.  Full horizon: the serial
    loop with the stop disarmed."""
    if stop:
        records = _run_http_batch_records(tasks, gfw_variant=gfw_variant)
    else:
        records = []
        for vantage, site, strategy_id, calibration, seed, keyword in tasks:
            record, scenario = _simulate_http_trial(
                vantage, site, strategy_id, calibration, seed=seed,
                keyword=keyword, gfw_variant=gfw_variant,
                stop_at_verdict=False,
            )
            release_scenario(scenario)
            records.append(record)
    return [dataclasses.astuple(record) for record in records]


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


def test_every_conformance_cell_same_records_with_and_without_the_stop():
    full = _conformance_records(repeats=2, stop=False)
    before = _stopped_count()
    stopped = _conformance_records(repeats=2, stop=True)
    _assert_stop_is_sound(full, stopped, _stopped_count() - before)
    assert len(full) == 2 * 924


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
        full, stopped = [], []
        before = _stopped_count()
        for _label, strategy_id, _discrepancy in TABLE1_ROWS:
            tasks = _cell_tasks(
                strategy_id, CHINA_VANTAGE_POINTS, sites,
                DEFAULT_CALIBRATION, 1, seed, keyword,
            )
            for begin in range(0, len(tasks), 16):
                window = tasks[begin : begin + 16]
                full.extend(_records(window, stop=False))
                stopped.extend(_records(window, stop=True))
        assert len(full) == 15 * 165
        stops = _stopped_count() - before
        if keyword:
            _assert_stop_is_sound(full, stopped, stops)
        else:
            # Benign requests draw no resets, so nothing may stop.
            assert full == stopped and stops == 0


def test_record_final_needs_all_three_conditions():
    """Each condition of the predicate is load-bearing on its own (the
    matrix above never binds on the device latch, so pin it here)."""
    scenario = build_scenario(
        CHINA_VANTAGE_POINTS[0], website=outside_china_catalog(count=1)[0],
        seed=0,
    )
    type2, type1 = scenario.gfw_devices
    assert (type2.config.reset_type, type1.config.reset_type) == (2, 1)
    type2.detections.append((0.1, "match"))
    type2.resets_injected = 3
    assert not scenario.record_final()  # no reset at the client yet
    scenario.gfw_packets_at_client.append("rst")
    scenario.reset_kinds.add("type2")
    assert not scenario.record_final()  # the type-1 device has not latched
    type1.missed_detections.append((0.1, "match"))
    assert scenario.record_final()  # a cluster miss latches it too
    type1.resets_injected = 1
    assert not scenario.record_final()  # its type-1 reset is still in flight
    scenario.reset_kinds.add("type1")
    assert scenario.record_final()
    release_scenario(scenario)


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


def test_stopped_counter_equal_serial_batched_and_sharded(monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    vantages = CHINA_VANTAGE_POINTS[:2]
    sites = outside_china_catalog(count=2)

    def stops(**kwargs):
        before = _stopped_count()
        run_strategy_cell("none", vantages, sites, repeats=2, **kwargs)
        return _stopped_count() - before

    monkeypatch.setenv("REPRO_BATCH_TRIALS", "1")
    serial = stops(workers=1)
    monkeypatch.delenv("REPRO_BATCH_TRIALS")
    assert serial > 0
    assert stops(workers=1) == serial
    assert stops(workers=2, shards=2) == serial


# ---------------------------------------------------------------------------
# observers keep the full horizon
# ---------------------------------------------------------------------------
def _inconsistency_counters(vantage, website, calibration, seeds, stop):
    totals = dict(resets=0, adds=0, expirations=0, stopped=0)
    for seed in seeds:
        _record, scenario = _simulate_http_trial(
            vantage, website, "none", calibration, seed=seed, keyword=True,
            gfw_variant=HETEROGENEOUS_VARIANT, stop_at_verdict=stop,
        )
        totals["stopped"] += scenario.stopped_at_verdict
        for device in scenario.gfw_devices:
            device.blacklist.sweep(scenario.clock.now)
            totals["resets"] += device.resets_injected
            totals["adds"] += device.blacklist.total_blacklistings
            totals["expirations"] += device.blacklist.total_expirations
        release_scenario(scenario)
    return totals


def test_inconsistency_cell_counters_equal_a_full_horizon_run():
    from repro.analysis.inconsistency import _cell_salt

    vantage = lab_vantages(1)[0]
    website = conformance_site()
    hour, repeats, seed = 0.0, 4, 2017
    cell = _inconsistency_cell_worker(
        (vantage, website, hour, "none", repeats, seed)
    )
    salt = _cell_salt(vantage.name, hour, "none")
    seeds = [(seed * 1_000_003 + repeat) ^ salt for repeat in range(repeats)]
    calibration = CLEAN_ROOM.variant(sim_hour=hour)
    full = _inconsistency_counters(vantage, website, calibration, seeds, False)
    assert (
        cell.resets_injected, cell.blacklist_adds, cell.blacklist_expirations
    ) == (full["resets"], full["adds"], full["expirations"])
    # The opt-out is load-bearing: a stopped run counts fewer resets.
    stopped = _inconsistency_counters(vantage, website, calibration, seeds, True)
    assert stopped["stopped"] > 0
    assert stopped["resets"] < full["resets"]


def _event_rows(events):
    return [(e.time, e.component, e.kind, e.fields) for e in events]


def _captured_events(vantage, website, stop):
    with capturing() as bus:
        watermark = bus.next_seq
        _record, scenario = _simulate_http_trial(
            vantage, website, "none", DEFAULT_CALIBRATION, seed=7,
            trace=True, stop_at_verdict=stop,
        )
        stopped = scenario.stopped_at_verdict
        release_scenario(scenario)
        return _event_rows(bus.events(since_seq=watermark - 1)), stopped


def test_diagnose_trial_events_equal_a_full_horizon_run():
    vantage = CHINA_VANTAGE_POINTS[0]
    website = outside_china_catalog(count=1)[0]
    diagnosis = diagnose_trial(
        vantage, website, "none", DEFAULT_CALIBRATION, seed=7
    )
    full, _ = _captured_events(vantage, website, stop=False)
    assert _event_rows(diagnosis.events) == full
    stopped, did_stop = _captured_events(vantage, website, stop=True)
    assert did_stop and len(stopped) < len(full)


def test_capture_ladder_equals_the_full_horizon_golden():
    cell = next(c for c in golden_cells() if c.strategy_id == "none")
    blessed = (golden_dir() / ladder_filename(cell)).read_text()
    assert capture_ladder(cell) == blessed
    _record, scenario = _simulate_http_trial(
        profile_vantage(cell.profile), conformance_site(), cell.strategy_id,
        cell_calibration(cell.fault),
        seed=(DEFAULT_SEED * 1_000_003) ^ cell.seed_salt(), keyword=True,
        trace=True, gfw_variant=cell.gfw_variant,
    )
    stopped_ladder = scenario.trace.format_ladder()
    assert scenario.stopped_at_verdict
    release_scenario(scenario)
    assert len(stopped_ladder) < len(blessed)


def test_fleet_waves_never_arm_the_stop(monkeypatch):
    armed = []
    release = fleet.release_scenario

    def recording_release(scenario):
        armed.append(scenario.stop_at_verdict or scenario.stopped_at_verdict)
        release(scenario)

    monkeypatch.setattr(fleet, "release_scenario", recording_release)
    scenarios.clear_scenario_pool()
    before = _stopped_count()
    spec = fleet.FleetSpec(
        flows=48, groups=2, window=16, max_flows=24, sites=12, seed=99
    )
    result = fleet.run_fleet(spec, shards=1)
    scenarios.clear_scenario_pool()
    assert len(armed) == 48
    assert not any(armed)
    assert _stopped_count() == before
    # Resets did reach fleet clients, so an armed stop could have fired.
    assert sum(counts[2] for counts in result.outcomes.values()) > 0
