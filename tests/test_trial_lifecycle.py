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
from repro.experiments import scenarios
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
    assert cyclic_garbage(lambda: run_fleet(spec, shards=1)) == []


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
