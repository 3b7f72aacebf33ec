"""The GFW installation is one frozen value.

``build_scenario`` draws a trial's installation from the calibration
(``draw_installation``) or takes the one it is given; one memoized
function, ``installation_configs``, builds the devices' configs and
nothing changes them afterwards.  These pins cover the seam a forced
installation uses: handing the drawn value back in gives the same trial,
stream for stream, and equal installations share their configs.
"""

import random

from repro.experiments import scenarios
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.runner import observe_http_trial, trial_seed
from repro.experiments.vantage import CHINA_VANTAGE_POINTS
from repro.experiments.websites import outside_china_catalog
from repro.gfw.models import Installation
from repro.strategies.registry import TABLE1_ROWS

#: A Table-1 slice: 3 vantages x 5 sites x 2 strategies.
VANTAGES = CHINA_VANTAGE_POINTS[:3]
SITES = outside_china_catalog(count=5)
STRATEGIES = ("none", TABLE1_ROWS[1][1])


def _trial(vantage, site, strategy_id, seed):
    """A full-horizon trial's record and the end state of its root,
    device and stack streams."""
    with observe_http_trial(
        vantage, site, strategy_id, DEFAULT_CALIBRATION, seed=seed
    ) as (record, scenario):
        streams = [scenario.rng.getstate()]
        streams.extend(device.rng.getstate() for device in scenario.gfw_devices)
        streams.append(scenario.client_tcp.rng.getstate())
        streams.append(scenario.server_tcp.rng.getstate())
        return record, streams


def _tasks():
    return [
        (vantage, site, strategy_id, trial_seed(7, v, w, 0, strategy_id))
        for v, vantage in enumerate(VANTAGES)
        for w, site in enumerate(SITES)
        for strategy_id in STRATEGIES
    ]


def test_draw_installation_makes_five_draws():
    rng, reference = random.Random(3), random.Random(3)
    scenarios.draw_installation(rng, DEFAULT_CALIBRATION)
    for _ in range(5):
        reference.random()
    assert rng.getstate() == reference.getstate()


def test_a_forced_installation_gives_the_same_trial(monkeypatch):
    draw = scenarios.draw_installation
    drawn = []

    def capturing(rng, calibration):
        drawn.append(draw(rng, calibration))
        return drawn[-1]

    monkeypatch.setattr(scenarios, "draw_installation", capturing)
    tasks = _tasks()
    baseline = [_trial(*task) for task in tasks]
    assert len(drawn) == len(tasks)
    assert len(set(drawn)) > 1  # the slice meets more than one installation

    forced = iter(list(drawn))
    handed = []

    def forcing(rng, calibration):
        draw(rng, calibration)  # the real draws: no later stream moves
        handed.append(next(forced))
        return handed[-1]

    monkeypatch.setattr(scenarios, "draw_installation", forcing)
    assert [_trial(*task) for task in tasks] == baseline
    assert handed == drawn


def test_equal_installations_share_their_configs():
    tor, no_tor = CHINA_VANTAGE_POINTS[1], CHINA_VANTAGE_POINTS[0]
    assert tor.tor_filtered and not no_tor.tor_filtered
    site = SITES[0]
    drawn = scenarios.draw_installation(random.Random(1), DEFAULT_CALIBRATION)

    def configs(vantage, installation, seed):
        scenario = scenarios.build_scenario(
            vantage, website=site, seed=seed, installation=installation
        )
        built = [device.config for device in scenario.gfw_devices]
        scenarios.release_scenario(scenario)
        return built

    for installation in (Installation(variant="mixed"), drawn):
        first = configs(tor, installation, seed=1)
        # An equal value, not the same object, and another trial seed.
        second = configs(tor, Installation(**vars(installation)), seed=2)
        assert first and all(a is b for a, b in zip(first, second))
        other = configs(no_tor, installation, seed=1)
        assert not any(a is b for a, b in zip(first, other))
        assert [c.rules.detect_tor for c in other] == [False] * len(other)
