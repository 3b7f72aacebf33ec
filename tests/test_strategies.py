"""The strategy × GFW-model matrix (clean room) plus per-strategy
mechanics: the core qualitative claims of the paper, as assertions.

| strategy                    | old GFW | evolved GFW |
|-----------------------------|---------|-------------|
| none                        | caught  | caught      |
| tcb-creation-syn            | evades  | caught (§4) |
| ooo-ip-fragments            | evades  | evades (sans middleboxes) |
| ooo-tcp-segments            | evades  | caught (first-wins) |
| inorder-overlap             | evades  | evades      |
| tcb-teardown-rst            | evades  | evades/caught per NB3 coin |
| tcb-teardown-fin            | evades  | caught (§4) |
| resync-desync               | caught  | evades (§5.2) |
| tcb-reversal                | caught  | evades (§5.2) |
| improved + combined (Fig 3/4) | evades | evades     |
"""

import random

import pytest

from repro.core.intang import INTANG
from repro.gfw import evolved_config, old_config
from repro.strategies.registry import STRATEGY_REGISTRY

from repro.experiments.lab import fetch, mini_topology
from helpers import detections


def run_strategy(strategy_id, model="evolved", seed=1, config_tweaks=None, **world_kw):
    config = evolved_config() if model == "evolved" else old_config()
    for name, value in (config_tweaks or {}).items():
        setattr(config, name, value)
    world = mini_topology(gfw_config=config, seed=seed, **world_kw)
    intang = INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy=strategy_id,
        rng=random.Random(seed + 7),
    )
    exchange = fetch(world)
    return world, exchange, intang


def assert_evades(strategy_id, model, **kw):
    world, exchange, _ = run_strategy(strategy_id, model, **kw)
    assert detections(world) == 0, f"{strategy_id} was detected by {model} GFW"
    assert exchange.got_response, f"{strategy_id} broke the connection on {model}"


def assert_caught(strategy_id, model, **kw):
    world, exchange, _ = run_strategy(strategy_id, model, **kw)
    assert detections(world) >= 1, f"{strategy_id} unexpectedly evaded {model} GFW"


class TestBaseline:
    def test_no_strategy_caught_by_both_models(self):
        assert_caught("none", "evolved")
        assert_caught("none", "old")


class TestTCBCreation:
    def test_evades_old_model(self):
        assert_evades("tcb-creation-syn/ttl", "old")
        assert_evades("tcb-creation-syn/bad-checksum", "old")

    def test_caught_by_evolved_model(self):
        """§4 prior-assumption 2 failure: resync defeats fake-SYN TCBs."""
        assert_caught("tcb-creation-syn/ttl", "evolved")
        assert_caught("tcb-creation-syn/bad-checksum", "evolved")

    def test_fake_syn_does_not_reach_server(self):
        world, exchange, intang = run_strategy("tcb-creation-syn/ttl", "old")
        # Exactly one server connection: the real one.
        assert len(world.server_tcp.connections) == 1


class TestDataReassembly:
    def test_ooo_ip_fragments_evade_both_without_middleboxes(self):
        assert_evades("ooo-ip-fragments", "old")
        assert_evades("ooo-ip-fragments", "evolved")

    def test_ooo_tcp_segments_evade_old_only(self):
        assert_evades("ooo-tcp-segments", "old")
        assert_caught("ooo-tcp-segments", "evolved")

    def test_ooo_tcp_segments_evade_lastwins_evolved_devices(self):
        """The ~31% of Table 1: devices that kept the old preference."""
        from repro.netstack.fragment import OverlapPolicy

        assert_evades(
            "ooo-tcp-segments", "evolved",
            config_tweaks={"tcp_ooo_policy": OverlapPolicy.LAST_WINS},
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            "inorder-overlap/ttl",
            "inorder-overlap/bad-ack",
            "inorder-overlap/bad-checksum",
            "inorder-overlap/no-flag",
        ],
    )
    def test_inorder_overlap_evades_both(self, strategy):
        assert_evades(strategy, "old")
        assert_evades(strategy, "evolved")

    def test_inorder_fails_against_noflag_ignoring_device(self):
        assert_caught(
            "inorder-overlap/no-flag", "evolved",
            config_tweaks={"accepts_no_flag_data": False},
        )

    def test_server_still_gets_real_request(self):
        world, exchange, _ = run_strategy("inorder-overlap/bad-ack", "evolved")
        assert exchange.got_response
        assert b"ultrasurf" in exchange.request


class TestTCBTeardown:
    @pytest.mark.parametrize(
        "strategy",
        ["tcb-teardown-rst/ttl", "tcb-teardown-rst/bad-checksum",
         "tcb-teardown-rstack/ttl", "tcb-teardown-rstack/bad-checksum"],
    )
    def test_rst_teardown_evades_old(self, strategy):
        assert_evades(strategy, "old")

    def test_rst_teardown_evades_evolved_when_coin_is_teardown(self):
        assert_evades(
            "tcb-teardown-rst/ttl", "evolved",
            config_tweaks={
                "resync_on_rst_probability": 0.0,
                "resync_on_rst_handshake_probability": 0.0,
            },
        )

    def test_rst_teardown_caught_when_coin_is_resync(self):
        """NB3: the device resynchronizes on the request instead."""
        assert_caught(
            "tcb-teardown-rst/ttl", "evolved",
            config_tweaks={
                "resync_on_rst_probability": 1.0,
                "resync_on_rst_handshake_probability": 1.0,
            },
        )

    def test_fin_teardown_evades_old_but_not_evolved(self):
        assert_evades("tcb-teardown-fin/ttl", "old")
        assert_caught("tcb-teardown-fin/ttl", "evolved")


class TestNewStrategies:
    def test_resync_desync_evades_evolved(self):
        assert_evades("resync-desync", "evolved")

    def test_resync_desync_fails_on_old(self):
        """No resync state to exploit — hence the Fig. 3 combination."""
        assert_caught("resync-desync", "old")

    def test_tcb_reversal_evades_evolved(self):
        assert_evades("tcb-reversal", "evolved")

    def test_tcb_reversal_fails_on_old(self):
        assert_caught("tcb-reversal", "old")

    def test_resync_desync_robust_to_nb3(self):
        assert_evades(
            "resync-desync", "evolved",
            config_tweaks={"resync_on_rst_probability": 1.0},
        )


class TestImprovedAndCombined:
    ALL_MODELS = ["old", "evolved"]

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize(
        "strategy",
        [
            "improved-tcb-teardown",
            "improved-inorder-overlap",
            "tcb-creation+resync-desync",
            "tcb-teardown+tcb-reversal",
        ],
    )
    def test_table4_strategies_evade_both_models(self, strategy, model):
        assert_evades(strategy, model)

    @pytest.mark.parametrize(
        "strategy",
        ["improved-tcb-teardown", "tcb-creation+resync-desync",
         "tcb-teardown+tcb-reversal"],
    )
    def test_table4_strategies_survive_nb3_resync(self, strategy):
        assert_evades(
            strategy, "evolved",
            config_tweaks={
                "resync_on_rst_probability": 1.0,
                "resync_on_rst_handshake_probability": 1.0,
            },
        )

    def test_combined_strategies_beat_coexisting_models(self):
        """§7.1's point: one path, devices of both generations, one
        strategy must defeat all of them."""
        for strategy in ("tcb-creation+resync-desync", "tcb-teardown+tcb-reversal"):
            config_old = old_config()
            config_old.miss_probability = 0.0
            world = mini_topology(seed=5)  # evolved device at hop 8
            from repro.gfw import GFWDevice

            second = GFWDevice(
                "gfw-old", hop=8, config=config_old, clock=world.clock,
                rng=random.Random(99), cluster=world.gfw.cluster,
            )
            world.path.add_element(second)
            intang = INTANG(
                host=world.client, tcp_host=world.client_tcp,
                clock=world.clock, network=world.network,
                fixed_strategy=strategy, rng=random.Random(3),
            )
            exchange = fetch(world)
            assert len(world.gfw.detections) == 0
            assert len(second.detections) == 0
            assert exchange.got_response


class TestBenignTrafficUnharmed:
    """w/o-keyword column of Table 1: strategies must not break normal
    browsing on clean paths."""

    @pytest.mark.parametrize(
        "strategy",
        ["tcb-creation-syn/ttl", "inorder-overlap/ttl", "tcb-teardown-rst/ttl",
         "resync-desync", "tcb-reversal", "improved-tcb-teardown",
         "improved-inorder-overlap", "tcb-creation+resync-desync",
         "tcb-teardown+tcb-reversal", "ooo-tcp-segments", "ooo-ip-fragments"],
    )
    def test_benign_fetch_succeeds(self, strategy):
        world, _, _ = run_strategy(strategy, "evolved", seed=4)
        world2 = mini_topology(seed=4)
        intang = INTANG(
            host=world2.client, tcp_host=world2.client_tcp, clock=world2.clock,
            network=world2.network, fixed_strategy=strategy,
            rng=random.Random(11),
        )
        exchange = fetch(world2, path="/benign.html")
        assert exchange.got_response
        assert detections(world2) == 0


class TestRegistry:
    def test_all_registered_strategies_instantiate(self):
        for strategy_id in STRATEGY_REGISTRY:
            # A fresh topology each: INTANG stays wired to its host.
            world = mini_topology(with_gfw=False)
            INTANG(
                host=world.client, tcp_host=world.client_tcp,
                clock=world.clock, network=world.network,
                fixed_strategy=strategy_id,
            )

    def test_unknown_strategy_raises(self):
        from repro.strategies.registry import make_strategy_factory

        with pytest.raises(KeyError):
            make_strategy_factory("no-such-strategy")

    def test_table_listings_reference_registry(self):
        from repro.strategies.registry import TABLE1_ROWS, TABLE4_STRATEGIES

        for _, strategy_id, _ in TABLE1_ROWS:
            assert strategy_id in STRATEGY_REGISTRY
        for _, strategy_id in TABLE4_STRATEGIES:
            assert strategy_id in STRATEGY_REGISTRY
