"""Tier-1 pins for the trial object lifecycle.

A finished trial's object graph (its GFW installation, INTANG instance,
TCP connections, and topology) must be freed by reference counting
once its scenario is released.  Anything left in a reference cycle waits
for a full cyclic collection, which a sweep of thousands of trials pays
for in wall time.  Each test runs one trial path with the collector in
``DEBUG_SAVEALL`` mode and asserts the collector found no ``repro``
object: everything the path dropped had already been freed.

The double-release guard of the scenario lease is pinned here too.
"""

import gc

import pytest

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments import fleet, scenarios
from repro.experiments.runner import run_dns_trial, run_tor_trial, run_vpn_trial
from repro.experiments.websites import DYN_RESOLVERS

VANTAGES = CHINA_VANTAGE_POINTS[:2]
SITES = outside_china_catalog(count=3)
STRATEGY = "tcb-teardown-rst/ttl"


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def cyclic_garbage(run):
    """Types of the ``repro`` objects the cyclic collector had to free
    after ``run()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def two_cells():
    for seed in (1, 2):
        run_strategy_cell(STRATEGY, VANTAGES, SITES, repeats=2, seed=seed)


def test_serial_trials_leave_no_cycles():
    assert cyclic_garbage(two_cells) == []


def test_unpooled_builds_leave_no_cycles():
    """A scenario built directly (not leased) and run to its horizon."""
    from repro.apps.http import HTTPClient
    from repro.experiments.runner import SENSITIVE_PATH

    def run():
        for seed in (1, 2):
            scenario = scenarios.build_scenario(
                VANTAGES[0], website=SITES[0], seed=seed
            )
            HTTPClient(scenario.client_tcp).get(
                SITES[0].ip, host=SITES[0].name, path=SENSITIVE_PATH
            )
            scenario.run()
            scenarios.release_scenario(scenario)

    assert cyclic_garbage(run) == []


def test_conformance_cells_leave_no_cycles():
    from repro.conformance import matrix

    cells = matrix.default_cells()[:4]

    def run():
        for seed in (2017, 2018):
            for cell in cells:
                matrix.run_cell(cell, repeats=3, seed=seed)

    assert cyclic_garbage(run) == []


def test_fleet_leaves_no_cycles():
    from repro.experiments.fleet import FleetSpec, run_fleet

    spec = FleetSpec(flows=96, seed=5, groups=1, window=32, max_flows=16)
    assert cyclic_garbage(lambda: run_fleet(spec, workers=1)) == []


def test_dns_tor_vpn_trials_leave_no_cycles():
    vantage, site = VANTAGES[0], SITES[0]

    def run():
        for seed in (1, 2):
            run_dns_trial(vantage, DYN_RESOLVERS[0], seed=seed)
            run_dns_trial(vantage, DYN_RESOLVERS[0], seed=seed, use_intang=False)
            run_tor_trial(vantage, site, strategy_id=STRATEGY, seed=seed)
            run_vpn_trial(vantage, site, strategy_id=STRATEGY, seed=seed)

    assert cyclic_garbage(run) == []


def test_traced_build_leaves_no_cycles():
    from repro.telemetry.diagnose import diagnose_trial

    def run():
        for seed in (1, 2):
            diagnose_trial(VANTAGES[0], SITES[0], STRATEGY, seed=seed)

    assert cyclic_garbage(run) == []


def _table2_probe():
    from repro.experiments.middlebox_probe import probe_vantage

    probe_vantage(CHINA_VANTAGE_POINTS[0])


def _fig1_threat_model():
    from repro.experiments.figures import threat_model

    threat_model()


def _vpn_campaign():
    from repro.experiments.figures import vpn_campaign

    vpn_campaign()


@pytest.mark.parametrize(
    "producer", [_table2_probe, _fig1_threat_model, _vpn_campaign],
    ids=["table2_probe", "fig1_threat_model", "vpn_campaign"],
)
def test_artifact_producer_builds_leave_no_cycles(producer):
    """Producers that build their own scenarios release them too."""
    assert cyclic_garbage(producer) == []


class TestReleaseOwnership:
    def test_double_release_raises(self):
        scenario = scenarios.acquire_scenario(
            VANTAGES[0], website=SITES[0], seed=0
        )
        scenarios.release_scenario(scenario)
        with pytest.raises(RuntimeError, match="released twice"):
            scenarios.release_scenario(scenario)

    def test_reacquired_scenario_can_be_released_again(self):
        scenario = scenarios.acquire_scenario(
            VANTAGES[0], website=SITES[0], seed=0
        )
        scenarios.release_scenario(scenario)
        # Every lease is a fresh object graph with its own release.
        again = scenarios.acquire_scenario(
            VANTAGES[0], website=SITES[0], seed=1
        )
        assert again.clock is not scenario.clock
        scenarios.release_scenario(again)


class TestFleetCollectorPause:
    """``run_fleet_group`` pauses the cyclic collector for each wave and
    hands back the collector state its caller had."""

    #: Three waves of 32 flows: each wave allocates far more tracked
    #: objects than one young-generation threshold.
    SPEC_ARGS = dict(flows=96, seed=5, groups=1, window=32, max_flows=16)

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:  # pragma: no cover - the suite runs with the collector on
            gc.disable()

    def test_no_collector_pass_while_a_wave_runs(
        self, monkeypatch, restore_collector
    ):
        """Every flow setup and finalization runs with the collector
        paused, and no pass starts inside a wave.  A pass the pause
        deferred may run at a wave boundary, at most one per wave."""
        spec = fleet.FleetSpec(**self.SPEC_ARGS)
        waves = len(range(0, spec.flows, spec.window))
        assert waves >= 2
        seen_enabled = []
        for name in ("_fleet_flow_setup", "_finalize_flow"):
            real = getattr(fleet, name)

            def spy(*args, _real=real):
                seen_enabled.append(gc.isenabled())
                return _real(*args)

            monkeypatch.setattr(fleet, name, spy)
        in_wave = []
        real_run_wave = fleet._run_wave

        def run_wave(*args):
            in_wave.append(True)
            try:
                return real_run_wave(*args)
            finally:
                in_wave.pop()

        monkeypatch.setattr(fleet, "_run_wave", run_wave)
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(bool(in_wave))

        gc.enable()
        gc.callbacks.append(count)
        try:
            result = fleet.run_fleet_group(spec, 0)
        finally:
            gc.callbacks.remove(count)
        assert result.flows == spec.flows
        assert seen_enabled == [False] * (2 * spec.flows)
        assert True not in passes
        assert len(passes) <= waves
        assert gc.isenabled()

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_caller_collector_state_is_restored(
        self, restore_collector, caller_enabled
    ):
        spec = fleet.FleetSpec(**self.SPEC_ARGS)
        (gc.enable if caller_enabled else gc.disable)()
        fleet.run_fleet_group(spec, 0)
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_collector_state_is_restored_when_a_wave_raises(
        self, monkeypatch, restore_collector, caller_enabled
    ):
        spec = fleet.FleetSpec(**self.SPEC_ARGS)
        real = fleet._fleet_flow_setup
        calls = []

        def failing_setup(*args):
            calls.append(gc.isenabled())
            if len(calls) == 2:
                raise RuntimeError("setup failed")
            return real(*args)

        monkeypatch.setattr(fleet, "_fleet_flow_setup", failing_setup)
        (gc.enable if caller_enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="setup failed"):
            fleet.run_fleet_group(spec, 0)
        assert calls == [False, False]
        assert gc.isenabled() is caller_enabled
