"""INTANG framework and strategy-selection tests."""

import random

import pytest

from repro.core.cache import KeyValueStore
from repro.core.framework import InterceptionFramework
from repro.core.hops import HopEstimator
from repro.core.selection import StrategyRecord, StrategySelector
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.netstack.packet import ACK, SYN

from repro.experiments.lab import CLIENT_IP, SERVER_IP, fetch, mini_topology


class CountingStrategy(EvasionStrategy):
    strategy_id = "counting"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.outgoing = []
        self.incoming = []

    def on_outgoing(self, packet):
        self.outgoing.append(packet)
        return [packet]

    def on_incoming(self, packet):
        self.incoming.append(packet)


class TestInterceptionFramework:
    def _world_with_framework(self):
        world = mini_topology(with_gfw=False)
        created = []

        def factory(ctx):
            strategy = CountingStrategy(ctx)
            created.append(strategy)
            return strategy

        framework = InterceptionFramework(
            host=world.client, clock=world.clock, strategy_factory=factory
        )
        return world, framework, created

    def test_strategy_created_per_connection(self):
        world, framework, created = self._world_with_framework()
        fetch(world, path="/x")
        assert len(created) == 1

    def test_outgoing_and_incoming_observed(self):
        world, framework, created = self._world_with_framework()
        fetch(world, path="/x")
        strategy = created[0]
        assert any(p.tcp.is_pure_syn for p in strategy.outgoing)
        assert any(p.tcp.is_synack for p in strategy.incoming)

    def test_context_tracks_sequence_numbers(self):
        world, framework, created = self._world_with_framework()
        fetch(world, path="/x")
        ctx = created[0].ctx
        assert ctx.saw_syn and ctx.saw_synack and ctx.handshake_done
        assert ctx.client_isn is not None
        assert ctx.server_isn is not None
        assert ctx.snd_nxt != ctx.client_isn

    def test_raw_send_bypasses_interception(self):
        world, framework, created = self._world_with_framework()
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        before = len(created[0].outgoing)
        world.client.send_raw(connection.make_packet(flags=ACK))
        world.run(0.2)
        assert len(created[0].outgoing) == before

    def test_mid_connection_packets_pass_without_context(self):
        """Packets of a connection the framework never saw the SYN of
        pass through unmodified (e.g. attach-after-start)."""
        world = mini_topology(with_gfw=False)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        framework = InterceptionFramework(host=world.client, clock=world.clock)
        connection.send(b"late data")
        world.run(1.0)
        assert framework.contexts == {}


class TestConnectionContext:
    def _ctx(self):
        sent = []
        ctx = ConnectionContext(
            src_ip=CLIENT_IP, src_port=1234, dst_ip=SERVER_IP, dst_port=80,
            clock=None, rng=random.Random(0), raw_send=sent.append,
            insertion_ttl=9,
        )
        return ctx, sent

    def test_make_packet_uses_four_tuple(self):
        ctx, _ = self._ctx()
        packet = ctx.make_packet(flags=SYN, seq=5)
        assert packet.src == CLIENT_IP and packet.dst == SERVER_IP
        assert packet.tcp.src_port == 1234 and packet.tcp.dst_port == 80
        assert packet.meta["origin"] == "intang-insertion"

    def test_send_insertion_copies(self):
        ctx, sent = self._ctx()
        ctx.send_insertion(ctx.make_packet(flags=SYN), copies=3)
        assert len(sent) == 3
        assert len(ctx.insertions_sent) == 3
        assert sent[0] is not sent[1]  # independent copies

    def test_queue_insertion_appends_in_order(self):
        ctx, sent = self._ctx()
        released = [ctx.make_packet(flags=ACK)]
        ctx.queue_insertion(released, ctx.make_packet(flags=SYN), copies=2)
        assert len(released) == 3
        assert released[1].tcp.is_syn and released[2].tcp.is_syn
        assert sent == []  # queued, not raw-sent

    def test_out_of_window_seq_is_far(self):
        ctx, _ = self._ctx()
        ctx.snd_nxt = 1000
        assert (ctx.out_of_window_seq() - 1000) & 0xFFFFFFFF >= 0x10000000


class TestHopEstimator:
    def test_measure_returns_responding_ttl(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP)
        assert estimator.measure(SERVER_IP) == 13  # hop_count + 1

    def test_insertion_ttl_subtracts_delta(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP, delta=2)
        assert estimator.insertion_ttl(SERVER_IP) == 11

    def test_cache_goes_stale_on_drift(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP)
        estimator.measure(SERVER_IP)
        world.path.drift_server_side(-2)
        assert estimator.measure(SERVER_IP) == 13  # stale on purpose
        assert estimator.measure(SERVER_IP, refresh=True) == 11

    def test_adjust_converges(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP, delta=2)
        assert estimator.adjust(SERVER_IP, +1) == 12

    def test_minimum_ttl_enforced(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP, delta=50)
        assert estimator.insertion_ttl(SERVER_IP) >= 2

    def test_forget(self):
        world = mini_topology(with_gfw=False, hop_count=12)
        estimator = HopEstimator(world.network, CLIENT_IP)
        estimator.measure(SERVER_IP)
        estimator.forget(SERVER_IP)
        world.path.drift_server_side(3)
        assert estimator.measure(SERVER_IP) == 16


class TestStrategySelector:
    def _selector(self, priority=("s1", "s2", "s3")):
        store = KeyValueStore(time_source=lambda: 0.0)
        return StrategySelector(store, priority=list(priority))

    def test_first_choice_is_priority_head(self):
        assert self._selector().choose("1.1.1.1") == "s1"

    def test_success_pins_strategy(self):
        selector = self._selector()
        selector.report("1.1.1.1", "s2", True)
        assert selector.choose("1.1.1.1") == "s2"

    def test_failure_rotates(self):
        selector = self._selector()
        selector.report("1.1.1.1", "s1", False)
        assert selector.choose("1.1.1.1") == "s2"

    def test_single_pinned_failure_is_tolerated(self):
        selector = self._selector()
        selector.report("1.1.1.1", "s1", True)
        selector.report("1.1.1.1", "s1", False)
        assert selector.choose("1.1.1.1") == "s1"
        selector.report("1.1.1.1", "s1", False)
        assert selector.choose("1.1.1.1") != "s1"

    def test_per_server_isolation(self):
        selector = self._selector()
        selector.report("1.1.1.1", "s1", False)
        assert selector.choose("2.2.2.2") == "s1"

    def test_all_failing_falls_back_to_best_rate(self):
        selector = self._selector()
        for strategy in ("s1", "s2", "s3"):
            selector.report("1.1.1.1", strategy, False)
        selector.report("1.1.1.1", "s2", True)
        selector.report("1.1.1.1", "s2", False)
        selector.report("1.1.1.1", "s2", False)
        # everything exhausted; highest historical success rate wins
        assert selector.choose("1.1.1.1") == "s2"

    def test_record_ttl_expiry_resets_history(self):
        time = [0.0]
        store = KeyValueStore(time_source=lambda: time[0])
        selector = StrategySelector(store, priority=["s1", "s2"], record_ttl=100.0)
        selector.report("1.1.1.1", "s1", False)
        assert selector.choose("1.1.1.1") == "s2"
        time[0] = 200.0
        assert selector.choose("1.1.1.1") == "s1"  # record expired

    def test_load_serves_restored_records_over_cached_ones(self):
        saved = self._selector()
        saved.report("1.1.1.1", "s2", True)
        blob = saved.dump()
        selector = self._selector()
        # The read caches an empty record in the front…
        assert selector.record_for("1.1.1.1").pinned is None
        selector.load(blob)
        # …which the restore must not let shadow the loaded one.
        assert selector.record_for("1.1.1.1").pinned == "s2"
        assert selector.choose("1.1.1.1") == "s2"

    def test_empty_priority_rejected(self):
        store = KeyValueStore(time_source=lambda: 0.0)
        with pytest.raises(ValueError):
            StrategySelector(store, priority=[])

    def test_record_json_roundtrip(self):
        record = StrategyRecord()
        record.note("a", True)
        record.note("a", False)
        record.note("b", False)
        restored = StrategyRecord.from_json(record.to_json())
        assert restored.pinned == record.pinned
        assert restored.outcomes == record.outcomes
        assert restored.success_rate("a") == 0.5
        assert restored.attempts("b") == 1
