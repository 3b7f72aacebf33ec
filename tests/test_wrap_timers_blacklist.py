"""Last-mile corners: sequence wraparound under load, retransmission
backoff, blacklist bidirectionality, and the DNS forwarder under loss."""

import random

import pytest

from repro.core.intang import INTANG
from repro.netstack.packet import ACK, IPPacket, TCPSegment, seq_add
from repro.tcp.stack import INITIAL_RTO, CloseReason
from repro.tcp.tcb import TCPState

from repro.experiments.lab import CLIENT_IP, SERVER_IP, fetch, mini_topology
from helpers import detections


class TestSequenceWraparound:
    def _world_with_wrapping_isn(self, isn):
        """Force the client's next connection to start near the wrap."""
        world = mini_topology(with_gfw=False, serve_http=False)

        class FixedISN(random.Random):
            def __init__(self, value):
                super().__init__(0)
                self._value = value

            def randrange(self, *args, **kw):
                return self._value

        world.client_tcp.rng = FixedISN(isn)
        return world

    def test_transfer_across_seq_wrap(self):
        """A payload spanning 2^32 - 1 -> 0 arrives intact."""
        world = self._world_with_wrapping_isn(0xFFFFFF00)
        received = []
        world.server_tcp.listen(
            80, lambda conn: setattr(conn, "on_data",
                                     lambda c, d: received.append(d))
        )
        payload = bytes(i % 251 for i in range(2048))
        connection = world.client_tcp.connect(SERVER_IP, 80)
        connection.on_established = lambda c: c.send(payload, segment_size=256)
        world.run(5.0)
        assert b"".join(received) == payload
        assert connection.tcb.snd_nxt < 0xFFFFFF00  # wrapped

    def test_gfw_tracks_across_seq_wrap(self):
        """The censor's shadow buffer also survives the wrap."""
        world = mini_topology(seed=17)
        world.client_tcp.rng = type(
            "R", (random.Random,),
            {"randrange": lambda self, *a, **k: 0xFFFFFFF0},
        )(0)
        exchange = fetch(world)
        assert detections(world) == 1
        assert not exchange.got_response


class TestRetransmissionBackoff:
    def test_rto_doubles_per_retry(self):
        """Retransmissions arrive at exponentially spaced times."""
        world = mini_topology(with_gfw=False, serve_http=False, loss_rate=0.0)
        # No listener on 4455: SYN+retries go unanswered... a closed port
        # refuses instead.  Use a black-hole: drop everything server-side.
        world.path.loss_rate = 1.0
        times = []
        original_send = world.client.send

        def spy(packet):
            if packet.is_tcp and packet.tcp.is_pure_syn:
                times.append(world.clock.now)
            original_send(packet)

        world.client.send = spy
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(30.0)
        assert connection.close_reason is CloseReason.TIMEOUT
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) >= 3
        assert gaps[0] == pytest.approx(INITIAL_RTO, rel=0.01)
        for earlier, later in zip(gaps, gaps[1:]):
            assert later >= earlier * 1.5  # doubling (capped late)

    def test_ack_cancels_retransmission(self):
        world = mini_topology(with_gfw=False)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        sent = []
        original_send = world.client.send
        world.client.send = lambda p: (sent.append(p), original_send(p))[1]
        connection.send(b"once")
        world.run(5.0)
        data_packets = [
            p for p in sent if p.is_tcp and p.tcp.payload == b"once"
        ]
        assert len(data_packets) == 1  # acked before any RTO fired


class TestBlacklistBidirectionality:
    def test_both_directions_disrupted(self):
        """§2.1: resets go to *both* the client and the server; during
        the window the server's packets to the client are also hit."""
        world = mini_topology(seed=19)
        fetch(world)
        assert detections(world) == 1
        server_rsts = []

        def sniff(packet, now):
            origin = str(packet.meta.get("origin", ""))
            if origin.startswith("gfw") and packet.is_tcp and packet.tcp.is_rst:
                server_rsts.append(packet)
            return False

        world.server.register_handler(sniff, prepend=True)
        # Server-originated traffic during the blacklist window:
        stray = IPPacket(
            src=SERVER_IP, dst=CLIENT_IP,
            payload=TCPSegment(src_port=80, dst_port=9999, seq=1,
                               ack=2, flags=ACK, payload=b"beacon"),
        )
        world.server.send_raw(stray)
        world.run(2.0)
        assert server_rsts  # forged resets reached the server side too

    def test_distinct_pairs_unaffected(self):
        """The blacklist keys on the host *pair*: another server on a
        different path is reachable throughout."""
        world = mini_topology(seed=20)
        fetch(world)
        assert world.gfw.blacklist.contains(CLIENT_IP, SERVER_IP, world.clock.now)
        assert not world.gfw.blacklist.contains(
            CLIENT_IP, "203.0.113.77", world.clock.now
        )


class TestForwarderUnderLoss:
    def test_dns_over_tcp_retransmits_through_loss(self):
        from repro.apps.dns import DNSTcpResolver, DNSUdpClient, DNSUdpResolver
        from repro.apps.udp import UDPHost

        world = mini_topology(with_gfw=False, serve_http=False,
                              loss_rate=0.25, seed=23)
        client_udp = UDPHost(world.client)
        server_udp = UDPHost(world.server)
        zone = {"www.dropbox.com": "104.16.100.29"}
        DNSUdpResolver(server_udp, zone)
        DNSTcpResolver(world.server_tcp, zone)
        INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, fixed_strategy="none",
            dns_resolver_ip=SERVER_IP, rng=random.Random(1),
        )
        client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
        answers = []
        client.resolve("www.dropbox.com", lambda m: answers.extend(m.answers))
        world.run(20.0)
        assert answers == ["104.16.100.29"]


class TestINTANGWorkloadMatrix:
    """One INTANG-protected pass of every workload under the *default*
    (noisy) calibration — the everything-wired smoke test."""

    def test_http_dns_tor_vpn_all_protected(self):
        from repro.experiments import (
            DEFAULT_CALIBRATION,
            DYN_RESOLVERS,
            outside_china_catalog,
            run_dns_trial,
            run_http_trial,
            run_tor_trial,
            run_vpn_trial,
            vantage_by_name,
        )
        from repro.experiments.runner import Outcome

        vantage = vantage_by_name("qcloud-guangzhou")
        catalog = outside_china_catalog()
        http_ok = sum(
            run_http_trial(vantage, catalog[i], "improved-tcb-teardown",
                           DEFAULT_CALIBRATION, seed=900 + i).outcome
            is Outcome.SUCCESS
            for i in range(6)
        )
        assert http_ok >= 4
        dns = run_dns_trial(vantage, DYN_RESOLVERS[0],
                            calibration=DEFAULT_CALIBRATION, seed=3)
        tor = run_tor_trial(vantage, catalog[0], "improved-tcb-teardown",
                            calibration=DEFAULT_CALIBRATION, seed=3)
        vpn = run_vpn_trial(vantage, catalog[1], "improved-tcb-teardown",
                            calibration=DEFAULT_CALIBRATION, seed=3)
        assert dns.success
        assert tor.reconnect_ok and not tor.ip_blocked
        assert vpn.frames_ok and not vpn.reset


class TestBlacklistTTLDrift:
    """Drifting blacklist windows (spatiotemporal heterogeneity): the
    90 s window is per-route now, so expiry must be exact at any scaled
    duration — and a re-match after expiry is a fresh blacklisting."""

    def test_non_wrap_ttl_drift_boundaries(self):
        """A drift-scaled window (0.05 x 90 s) expires at exactly
        now + duration, with monotonic non-wrapping timestamps."""
        from repro.gfw.blacklist import Blacklist

        blacklist = Blacklist(duration=4.5)
        blacklist.add(CLIENT_IP, SERVER_IP, now=1000.0)
        assert blacklist.remaining(CLIENT_IP, SERVER_IP, 1000.0) == 4.5
        assert blacklist.contains(CLIENT_IP, SERVER_IP, 1004.4)
        assert blacklist.remaining(CLIENT_IP, SERVER_IP, 1004.4) == \
            pytest.approx(0.1)
        # The boundary itself is out: now >= expiry expires.
        assert not blacklist.contains(CLIENT_IP, SERVER_IP, 1004.5)
        assert blacklist.total_expirations == 1
        assert blacklist.remaining(CLIENT_IP, SERVER_IP, 1004.5) == 0.0
        # Re-add restarts the full drifted window from the new now.
        blacklist.add(CLIENT_IP, SERVER_IP, now=1004.5)
        assert blacklist.contains(CLIENT_IP, SERVER_IP, 1008.9)
        assert blacklist.total_blacklistings == 2
        # sweep() materializes expiries nothing re-reads.
        assert blacklist.sweep(2000.0) == 1
        assert blacklist.total_expirations == 2
        assert len(blacklist) == 0

    def test_readd_after_expiry_publishes_blacklist_add_once_per_match(self):
        """Regression: each DPI re-match after TTL expiry publishes
        exactly one ``blacklist_add`` in the event ring — no duplicate
        event for the volley, no missing event for the re-add."""
        from repro.telemetry import EVENTS, observing

        with observing(EVENTS) as bus:
            bus.clear()
            world = mini_topology(seed=31)
            world.gfw.blacklist.duration = 1.0  # expire between fetches
            fetch(world)
            assert detections(world) == 1
            # The window has lapsed by the time the second, fresh
            # connection re-matches the keyword.
            fetch(world)
            assert detections(world) == 2
            assert not world.gfw.blacklist.contains(
                CLIENT_IP, SERVER_IP, world.clock.now
            )
            adds = bus.events(component="gfw", kind="blacklist_add")
        assert len(adds) == 2
        assert all(
            {event.fields["client"], event.fields["server"]}
            == {CLIENT_IP, SERVER_IP}
            for event in adds
        )
        assert adds[0].time < adds[1].time
