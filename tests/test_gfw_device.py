"""GFW device state-machine tests: every behaviour of §2.1 and §4."""

import random

from repro.netstack.packet import ACK, FIN, RST, SYN, TCPSegment, seq_add
from repro.gfw import GFWDevice, GFWFlowState, evolved_config, old_config
from repro.gfw.flow import expected_reset_seqs
from repro.analysis.probe import GFWHarness

from repro.experiments.lab import CLIENT_IP, SERVER_IP, fetch, mini_topology
from helpers import detections


def _harness(config=None, **kw):
    return GFWHarness(config=config, **kw)


class TestTCBCreation:
    def test_tcb_created_on_syn(self):
        from repro.analysis.ignore_paths import CLIENT_IP as HARNESS_CLIENT_IP

        harness = _harness()
        harness.send_from_client(harness._segment(SYN, seq=harness.client_isn))
        flow = harness.flow()
        assert flow is not None
        assert flow.believed_client[0] == HARNESS_CLIENT_IP
        assert flow.client_next_seq == seq_add(harness.client_isn, 1)

    def test_nb1_tcb_created_on_bare_synack(self):
        """NB1: a SYN/ACK alone creates a TCB (anti-SYN-loss feature)."""
        harness = _harness()
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        flow = harness.flow()
        assert flow is not None
        # believed client is the SYN/ACK's destination
        assert flow.believed_client[1] == 45000
        assert flow.client_next_seq == seq_add(harness.client_isn, 1)

    def test_old_model_ignores_bare_synack(self):
        harness = _harness(config=old_config())
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=1, ack=2, flags=SYN | ACK
        )
        harness.send_from_server(synack)
        assert harness.flow() is None

    def test_data_without_tcb_invisible(self):
        """No TCB, no inspection — why teardown evasion works at all."""
        harness = _harness()
        data = harness._segment(ACK, seq=500, ack=1, payload=b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n")
        harness.send_from_client(data)
        assert harness.flow() is None
        assert not harness.device.detections


class TestKeywordDetection:
    def test_keyword_detected_and_punished(self):
        world = mini_topology()
        exchange = fetch(world)
        assert detections(world) == 1
        assert not exchange.got_response
        assert world.gfw_resets_at_client

    def test_benign_request_untouched(self):
        world = mini_topology()
        exchange = fetch(world, path="/index.html")
        assert detections(world) == 0
        assert exchange.got_response

    def test_keyword_split_across_segments_still_detected(self):
        """§4 hypothesis (2) ruled out: the GFW reassembles first."""
        from repro.apps.http import HTTPClient

        world = mini_topology()
        client = HTTPClient(world.client_tcp)
        _, exchange = client.get(
            SERVER_IP, host="example.com", path="/?q=ultrasurf",
            segment_size=12,
        )
        world.run(8.0)
        assert detections(world) == 1

    def test_keyword_in_host_header_detected(self):
        from repro.apps.http import HTTPClient

        world = mini_topology()
        client = HTTPClient(world.client_tcp)
        _, exchange = client.get(SERVER_IP, host="ultrasurf.example.com", path="/")
        world.run(8.0)
        assert detections(world) == 1

    def test_out_of_window_keyword_ignored(self):
        harness = _harness()
        harness.establish()
        data = harness._segment(
            ACK,
            seq=seq_add(harness.snd_nxt(), 0x40000000),
            ack=harness.rcv_nxt(),
            payload=b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        harness.send_from_client(data)
        assert not harness.device.detections

    def test_miss_probability_suppresses_punishment(self):
        world = mini_topology()
        world.gfw.cluster.miss_probability = 1.0
        exchange = fetch(world)
        assert exchange.got_response
        assert world.gfw.missed_detections
        assert not world.gfw.detections


class TestResyncState:
    def test_nb2a_multiple_syns_enter_resync(self):
        harness = _harness()
        harness.establish()
        late_syn = harness._segment(SYN, seq=12345)
        harness.send_from_client(late_syn)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_resync_adopts_next_client_data_seq(self):
        harness = _harness()
        harness.establish()
        harness.send_from_client(harness._segment(SYN, seq=12345))
        junk = harness._segment(
            ACK, seq=0x70000000, ack=harness.rcv_nxt(), payload=b"j"
        )
        harness.send_from_client(junk)
        flow = harness.flow()
        assert flow.state is GFWFlowState.ESTABLISHED
        assert flow.client_next_seq == seq_add(0x70000000, 1)

    def test_nb2b_multiple_synacks_enter_resync(self):
        harness = _harness()
        harness.establish()
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_nb2c_mismatched_synack_ack_enters_resync(self):
        harness = _harness()
        harness.send_from_client(harness._segment(SYN, seq=harness.client_isn))
        bad_synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 999), flags=SYN | ACK,
        )
        harness.send_from_server(bad_synack)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_resync_resolved_by_server_synack(self):
        """Why the Fig. 3 strategy needs its *second* SYN insertion: the
        legitimate SYN/ACK re-synchronizes the device."""
        harness = _harness()
        fake = harness._segment(SYN, seq=seq_add(harness.client_isn, 0x100000))
        harness.send_from_client(fake)
        harness.send_from_client(harness._segment(SYN, seq=harness.client_isn))
        assert harness.flow().state is GFWFlowState.RESYNC
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        flow = harness.flow()
        assert flow.state is GFWFlowState.ESTABLISHED
        assert flow.client_next_seq == seq_add(harness.client_isn, 1)

    def test_pure_ack_does_not_resynchronize(self):
        harness = _harness()
        harness.establish()
        harness.send_from_client(harness._segment(SYN, seq=12345))
        ack = harness._segment(
            ACK, seq=0x70000000, ack=harness.rcv_nxt()
        )
        harness.send_from_client(ack)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_old_model_has_no_resync(self):
        harness = _harness(config=old_config())
        harness.establish()
        harness.send_from_client(harness._segment(SYN, seq=12345))
        flow = harness.flow()
        assert flow.state is GFWFlowState.ESTABLISHED
        assert flow.client_next_seq == seq_add(harness.client_isn, 1)


class TestTeardown:
    def _rst(self, harness):
        return harness._segment(
            RST, seq=harness.snd_nxt(), ack=0
        )

    def test_rst_tears_down_when_coin_says_teardown(self):
        config = evolved_config(
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=0.0,
        )
        harness = _harness(config=config)
        harness.establish()
        harness.send_from_client(self._rst(harness))
        assert harness.flow() is None

    def test_nb3_rst_resyncs_when_coin_says_resync(self):
        config = evolved_config(
            resync_on_rst_probability=1.0,
            resync_on_rst_handshake_probability=1.0,
        )
        harness = _harness(config=config)
        harness.establish()
        harness.send_from_client(self._rst(harness))
        flow = harness.flow()
        assert flow is not None
        assert flow.state is GFWFlowState.RESYNC

    def test_bad_checksum_rst_still_accepted_by_gfw(self):
        """The GFW does not validate checksums (Table 3 row 3)."""
        config = evolved_config(
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=0.0,
        )
        harness = _harness(config=config)
        harness.establish()
        rst = self._rst(harness)
        rst.checksum_override = 0xBAD1
        harness.send_from_client(rst)
        assert harness.flow() is None

    def test_fin_does_not_tear_down_evolved(self):
        harness = _harness()
        harness.establish()
        fin = harness._segment(FIN, seq=harness.snd_nxt())
        harness.send_from_client(fin)
        assert harness.flow() is not None

    def test_fin_tears_down_old_model(self):
        harness = _harness(config=old_config())
        harness.establish()
        fin = harness._segment(FIN, seq=harness.snd_nxt())
        harness.send_from_client(fin)
        assert harness.flow() is None

    def test_old_model_rst_always_tears_down(self):
        harness = _harness(config=old_config())
        harness.establish()
        harness.send_from_client(self._rst(harness))
        assert harness.flow() is None


class TestResetSignatures:
    def test_type2_injects_three_rstacks_with_future_seqs(self):
        world = mini_topology(gfw_config=evolved_config(reset_type=2))
        fetch(world)
        resets = world.gfw_resets_at_client
        assert len(resets) >= 3
        seqs = sorted(
            ((p.tcp.seq - resets[0].tcp.seq) & 0xFFFFFFFF) for p in resets[:3]
        )
        assert seqs == [0, 1460, 4380]
        assert all(p.tcp.flags & ACK for p in resets[:3])

    def test_type1_injects_single_plain_rst(self):
        world = mini_topology(gfw_config=evolved_config(reset_type=1))
        fetch(world)
        first_volley = [
            p for p in world.gfw_resets_at_client
            if p.meta.get("origin") == "gfw-type1"
        ]
        assert first_volley
        assert all(p.tcp.flags == RST for p in first_volley[:1])

    def test_expected_reset_seqs_helper(self):
        harness = _harness()
        harness.establish()
        flow = harness.flow()
        x, x1, x2 = expected_reset_seqs(flow)
        assert (x1 - x) & 0xFFFFFFFF == 1460
        assert (x2 - x) & 0xFFFFFFFF == 4380


class TestBlacklist:
    def _detect(self, world):
        exchange = fetch(world)
        assert detections(world) == 1
        return exchange

    def test_pair_blacklisted_for_90s(self):
        world = mini_topology()
        self._detect(world)
        assert world.gfw.blacklist.contains(CLIENT_IP, SERVER_IP, world.clock.now)
        remaining = world.gfw.blacklist.remaining(
            CLIENT_IP, SERVER_IP, world.clock.now
        )
        assert 0 < remaining <= 90.0

    def test_syn_during_blacklist_gets_forged_synack(self):
        world = mini_topology()
        self._detect(world)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(3.0)
        assert world.gfw.forged_synacks_injected > 0
        assert connection.state is not None  # handshake obstructed

    def test_blacklist_expires_after_90s(self):
        world = mini_topology()
        self._detect(world)
        world.run(95.0)
        exchange = fetch(world, path="/benign")
        assert exchange.got_response

    def test_type1_device_enforces_no_blacklist(self):
        world = mini_topology(gfw_config=evolved_config(reset_type=1))
        self._detect(world)
        assert len(world.gfw.blacklist) == 0


class TestTCBReversalMechanics:
    def test_synack_from_client_reverses_monitoring(self):
        harness = _harness()
        fake_synack = harness._segment(
            SYN | ACK, seq=999, ack=111
        )
        harness.send_from_client(fake_synack)
        from repro.analysis.ignore_paths import SERVER_IP as HARNESS_SERVER_IP

        flow = harness.flow()
        # The device believes the *destination* of the SYN/ACK (the real
        # server) is the client.
        assert flow.believed_client[0] == HARNESS_SERVER_IP
        # The subsequent real handshake is ignored: no resync.
        harness.establish()
        assert flow.state is GFWFlowState.ESTABLISHED
        # Real client request data is not inspected.
        request = harness._segment(
            ACK, seq=harness.snd_nxt(), ack=harness.rcv_nxt(),
            payload=b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        harness.send_from_client(request)
        assert not harness.device.detections


class TestNoFlagAndAckQuirks:
    def test_device_configured_to_ignore_no_flag_data(self):
        harness = _harness(config=evolved_config(accepts_no_flag_data=False))
        harness.establish()
        junk = harness._segment(
            0, seq=harness.snd_nxt(), payload=b"junkjunk"
        )
        junk.ack = 0
        harness.send_from_client(junk)
        assert harness.flow().client_next_seq == harness.snd_nxt()

    def test_device_accepts_no_flag_by_default(self):
        harness = _harness()
        harness.establish()
        junk = harness._segment(
            0, seq=harness.snd_nxt(), payload=b"junkjunk"
        )
        harness.send_from_client(junk)
        assert harness.flow().client_next_seq == seq_add(harness.snd_nxt(), 8)

    def test_ack_validating_device_ignores_wild_acks(self):
        harness = _harness(config=evolved_config(validates_ack_number=True))
        harness.establish()
        junk = harness._segment(
            ACK, seq=harness.snd_nxt(),
            ack=seq_add(harness.rcv_nxt(), 0x30000000),
            payload=b"junkjunk",
        )
        harness.send_from_client(junk)
        assert harness.flow().client_next_seq == harness.snd_nxt()


class TestStreamSharing:
    def test_default_cluster_shares_the_device_stream(self):
        """A device built without a cluster hands its own RNG object to
        the cluster it creates: the cluster's miss and NB3 coins continue
        the device's stream instead of replaying a copy of it."""
        from repro.netsim import SimClock

        devices = [
            GFWDevice(
                "gfw", hop=8, config=evolved_config(), clock=SimClock(),
                rng=random.Random(5),
            ),
            _harness().device,
            mini_topology().gfw,
        ]
        for device in devices:
            assert device.cluster.rng is device.rng
