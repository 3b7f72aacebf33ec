"""Unit tests for the GFW's auxiliary components: blacklist, cluster,
DNS poisoner, active prober, and reset-injector signatures."""

import random

import pytest

from repro.gfw.active_prober import ActiveProber
from repro.gfw.blacklist import Blacklist
from repro.gfw.cluster import GFWCluster
from repro.gfw.dns_poisoner import DNSPoisoner, POISONED_ANSWER_IP
from repro.gfw.resets import ResetInjector
from repro.netsim.simclock import SimClock


class TestBlacklist:
    def test_symmetric_keying(self):
        blacklist = Blacklist()
        blacklist.add("1.1.1.1", "2.2.2.2", now=0.0)
        assert blacklist.contains("2.2.2.2", "1.1.1.1", now=1.0)

    def test_expiry(self):
        blacklist = Blacklist(duration=90.0)
        blacklist.add("a", "b", now=0.0)
        assert blacklist.contains("a", "b", now=89.9)
        assert not blacklist.contains("a", "b", now=90.0)

    def test_re_add_extends(self):
        blacklist = Blacklist(duration=90.0)
        blacklist.add("a", "b", now=0.0)
        blacklist.add("a", "b", now=60.0)
        assert blacklist.contains("a", "b", now=120.0)
        assert blacklist.total_blacklistings == 2

    def test_remaining(self):
        blacklist = Blacklist(duration=90.0)
        blacklist.add("a", "b", now=10.0)
        assert blacklist.remaining("a", "b", now=40.0) == pytest.approx(60.0)
        assert blacklist.remaining("x", "y", now=0.0) == 0.0

    def test_clear_and_len(self):
        blacklist = Blacklist()
        blacklist.add("a", "b", now=0.0)
        assert len(blacklist) == 1
        blacklist.clear()
        assert len(blacklist) == 0


class TestCluster:
    def test_miss_draw_is_stable_per_flow(self):
        cluster = GFWCluster(random.Random(1), miss_probability=0.5)
        key = (("a", 1), ("b", 2))
        first = cluster.flow_missed(key)
        assert all(cluster.flow_missed(key) == first for _ in range(10))

    def test_new_trial_redraws(self):
        cluster = GFWCluster(random.Random(2), miss_probability=0.5)
        key = (("a", 1), ("b", 2))
        draws = set()
        for _ in range(20):
            draws.add(cluster.flow_missed(key))
            cluster.new_trial()
        assert draws == {True, False}

    def test_miss_rate_statistics(self):
        cluster = GFWCluster(random.Random(3), miss_probability=0.028)
        misses = 0
        for index in range(2000):
            if cluster.flow_missed((("a", index), ("b", 80))):
                misses += 1
        assert 30 <= misses <= 90  # ~56 expected


class TestResetInjectorSignatures:
    def test_type1_is_single_plain_rst(self):
        injector = ResetInjector(1, random.Random(4))
        packets = injector.forged_resets(("s", 80), ("c", 999), seq_base=50)
        assert len(packets) == 1
        assert packets[0].tcp.flags == 0x04  # RST only

    def test_type1_random_ttl_and_window(self):
        injector = ResetInjector(1, random.Random(4))
        ttls = set()
        windows = set()
        for _ in range(30):
            packet = injector.forged_resets(("s", 80), ("c", 9), 0)[0]
            ttls.add(packet.ttl)
            windows.add(packet.tcp.window)
        assert len(ttls) > 10
        assert len(windows) > 20

    def test_type2_three_rstacks_future_offsets(self):
        injector = ResetInjector(2, random.Random(5))
        packets = injector.forged_resets(("s", 80), ("c", 9), seq_base=1000)
        assert len(packets) == 3
        offsets = [(p.tcp.seq - 1000) & 0xFFFFFFFF for p in packets]
        assert offsets == [0, 1460, 4380]
        assert all(p.tcp.flags == 0x14 for p in packets)  # RST|ACK

    def test_type2_cyclic_ttl(self):
        injector = ResetInjector(2, random.Random(5))
        ttls = []
        for _ in range(10):
            ttls.extend(
                p.ttl for p in injector.forged_resets(("s", 80), ("c", 9), 0)
            )
        increments = [b - a for a, b in zip(ttls, ttls[1:])]
        assert increments.count(1) >= len(increments) - 2  # cyclic wrap allowed

    def test_forged_synack_acks_syn(self):
        injector = ResetInjector(2, random.Random(6))
        packet = injector.forged_synack(("s", 80), ("c", 9), acked_seq=500)
        assert packet.tcp.is_synack
        assert packet.tcp.ack == 501
        assert packet.meta["forged"] == "synack"

    def test_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            ResetInjector(3, random.Random(0))


class TestActiveProber:
    class FakeDevice:
        def __init__(self):
            self.blocked = []

        def block_ip(self, ip):
            self.blocked.append(ip)

    def test_confirmed_probe_blocks_ip(self):
        clock = SimClock()
        prober = ActiveProber(clock, bridge_oracle=lambda ip, port: True,
                              probe_delay=2.0)
        device = self.FakeDevice()
        prober.schedule_probe(device, "9.9.9.9", 443, now=0.0)
        clock.run_for(1.0)
        assert device.blocked == []  # probe still in flight
        clock.run_for(2.0)
        assert device.blocked == ["9.9.9.9"]
        assert prober.confirmed_blocks == ["9.9.9.9"]

    def test_unconfirmed_probe_blocks_nothing(self):
        clock = SimClock()
        prober = ActiveProber(clock, bridge_oracle=lambda ip, port: False)
        device = self.FakeDevice()
        prober.schedule_probe(device, "9.9.9.9", 443, now=0.0)
        clock.run_for(10.0)
        assert device.blocked == []
        assert prober.probes[0][3] is False

    def test_default_oracle_denies(self):
        clock = SimClock()
        prober = ActiveProber(clock)
        device = self.FakeDevice()
        prober.schedule_probe(device, "9.9.9.9", 443, now=0.0)
        clock.run_for(10.0)
        assert device.blocked == []


class TestDNSPoisonerParsing:
    def test_malformed_udp_ignored(self):
        from repro.netstack.packet import udp_packet

        poisoner = DNSPoisoner()

        class FakeDevice:
            class config:
                class rules:
                    @staticmethod
                    def domain_is_poisoned(domain):
                        return True

            def inject(self, packets):  # pragma: no cover
                raise AssertionError("must not inject for garbage")

        packet = udp_packet("1.1.1.1", "8.8.8.8", 5000, 53, b"\x00\x01")
        poisoner.handle(FakeDevice(), packet, None, 0.0)
        assert poisoner.poisonings == []

    def test_poisoned_answer_constant_is_routable_looking(self):
        from repro.netstack.packet import ip_to_int

        assert ip_to_int(POISONED_ANSWER_IP) > 0
