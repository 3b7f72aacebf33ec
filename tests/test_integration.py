"""Cross-module integration tests: whole-paper behaviours end to end."""

import random

import pytest

from repro.core.intang import INTANG
from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    CLEAN_ROOM,
    DEFAULT_CALIBRATION,
    Outcome,
    outside_china_catalog,
    run_http_trial,
)
from repro.experiments.runner import make_persistent_selector
from repro.gfw import evolved_config

from repro.experiments.lab import CLIENT_IP, SERVER_IP, fetch, lab_trial, mini_topology
from helpers import detections


class TestNinetySecondBlacklist:
    """§2.1's post-detection regime, across real connections."""

    def _tripped_world(self):
        world = mini_topology(seed=31)
        fetch(world)
        assert detections(world) == 1
        return world

    def test_fresh_connection_during_blacklist_fails(self):
        world = self._tripped_world()
        world.client_tcp.purge_closed()
        exchange = fetch(world, path="/benign.html")
        assert not exchange.got_response

    def test_connection_after_expiry_succeeds(self):
        world = self._tripped_world()
        world.run(91.0)
        world.client_tcp.purge_closed()
        exchange = fetch(world, path="/benign.html")
        assert exchange.got_response

    def test_forged_synack_has_wrong_sequence(self):
        world = self._tripped_world()
        world.client_tcp.purge_closed()
        synacks = []
        world.client.register_handler(
            lambda p, now: (
                synacks.append(p)
                if p.is_tcp and p.tcp.is_synack and "forged" in p.meta
                else None,
                False,
            )[1],
            prepend=True,
        )
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(2.0)
        assert synacks
        assert synacks[0].meta["forged"] == "synack"


class TestEvasionUnderBlacklistThreat:
    def test_successful_evasion_never_trips_blacklist(self):
        world = mini_topology(seed=32)
        INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, fixed_strategy="tcb-teardown+tcb-reversal",
            rng=random.Random(1),
        )
        for index in range(3):
            world.client_tcp.purge_closed()
            exchange = fetch(world)
            assert exchange.got_response, f"request {index} failed"
        assert len(world.gfw.blacklist) == 0


class TestINTANGAdaptivity:
    def test_selector_converges_after_failures(self):
        """A strategy that fails against this site rotates out; a working
        one gets pinned — the §6 measurement-driven loop."""
        vantage = CHINA_VANTAGE_POINTS[1]
        site = outside_china_catalog()[2]
        selector = make_persistent_selector(
            priority=["tcb-teardown-fin/ttl", "tcb-teardown+tcb-reversal"]
        )
        outcomes = []
        for repeat in range(4):
            record = run_http_trial(
                vantage, site, None, CLEAN_ROOM, seed=100 + repeat,
                selector=selector,
            )
            outcomes.append((record.strategy_id, record.outcome))
        # First trial used the failing FIN strategy; later trials pinned
        # the working combination.
        assert outcomes[0][0] == "tcb-teardown-fin/ttl"
        assert outcomes[0][1] is Outcome.FAILURE2
        assert outcomes[-1][0] == "tcb-teardown+tcb-reversal"
        assert outcomes[-1][1] is Outcome.SUCCESS

    def test_pinned_strategy_reused_across_trials(self):
        vantage = CHINA_VANTAGE_POINTS[1]
        site = outside_china_catalog()[2]
        selector = make_persistent_selector()
        for repeat in range(3):
            run_http_trial(
                vantage, site, None, CLEAN_ROOM, seed=200 + repeat,
                selector=selector,
            )
        record = selector.record_for(site.ip)
        assert record.pinned is not None


class TestReportingLoop:
    def test_report_result_updates_store(self):
        world = mini_topology(seed=33)
        intang = INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, rng=random.Random(5),
        )
        exchange = fetch(world)
        server_ip = SERVER_IP
        intang.report_result(server_ip, exchange.got_response)
        record = intang.selector.record_for(server_ip)
        strategy = intang.last_strategy_for(server_ip)
        assert record.attempts(strategy) == 1

    def test_insertions_counted(self):
        world = mini_topology(seed=34)
        intang = INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, fixed_strategy="improved-tcb-teardown",
            rng=random.Random(5),
        )
        fetch(world)
        assert intang.insertions_sent() >= 2


class TestFigureTraces:
    """Fig. 3 / Fig. 4 as packet-ladder traces (also exercised by the
    fig3/fig4 benchmarks)."""

    def _traced_run(self, strategy_id):
        world, exchange = lab_trial(strategy_id, 36, 1, trace=True)
        assert exchange.got_response
        sends = [
            event for event in world.trace.events
            if event.action == "send" and "[S" in event.summary
        ]
        return world, sends

    def test_fig3_packet_order(self):
        """Fig. 3: fake SYN, real handshake, second fake SYN, desync."""
        world, sends = self._traced_run("tcb-creation+resync-desync")
        syn_sends = [e for e in sends if "[S]" in e.summary]
        # 3 copies of fake SYN #1 + the real SYN + 3 copies of fake SYN #2
        assert len(syn_sends) == 7

    def test_fig4_packet_order(self):
        """Fig. 4: fake SYN/ACK precedes the real SYN; RST follows the
        handshake."""
        world, _ = self._traced_run("tcb-teardown+tcb-reversal")
        events = [
            event.summary for event in world.trace.events
            if event.action == "send"
        ]
        first_synack = next(i for i, s in enumerate(events) if "[SA]" in s)
        first_syn = next(i for i, s in enumerate(events) if "[S]" in s)
        first_rst = next(i for i, s in enumerate(events) if "[R]" in s)
        assert first_synack < first_syn < first_rst


class TestNoiseResilience:
    def test_evasion_survives_moderate_loss(self):
        successes = 0
        for seed in range(8):
            world = mini_topology(seed=seed, loss_rate=0.08)
            INTANG(
                host=world.client, tcp_host=world.client_tcp,
                clock=world.clock, network=world.network,
                fixed_strategy="improved-tcb-teardown",
                rng=random.Random(seed),
            )
            exchange = fetch(world, duration=15.0)
            if exchange.got_response and not world.gfw_resets_at_client:
                successes += 1
        assert successes >= 6

    def test_default_calibration_trial_is_reproducible(self):
        vantage = CHINA_VANTAGE_POINTS[0]
        site = outside_china_catalog()[0]
        first = run_http_trial(vantage, site, "improved-tcb-teardown",
                               DEFAULT_CALIBRATION, seed=77)
        second = run_http_trial(vantage, site, "improved-tcb-teardown",
                                DEFAULT_CALIBRATION, seed=77)
        assert first.outcome is second.outcome
        assert first.drift == second.drift
