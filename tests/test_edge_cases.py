"""Edge-case tests across modules: listener gating, half-close states,
GFW fragment reassembly, trace predicates, and codec corners."""

import pytest

from repro.netstack.fragment import fragment_packet
from repro.netstack.options import MD5SignatureOption, MSSOption
from repro.netstack.packet import (
    ACK,
    IPPacket,
    RST,
    SYN,
    TCPSegment,
    seq_add,
)
from repro.netsim.trace import TraceEvent, TraceRecorder
from repro.tcp.tcb import TCPState

from repro.experiments.lab import CLIENT_IP, SERVER_IP, mini_topology
from helpers import detections


class TestListenerGating:
    """The universal ignore paths also gate connection creation."""

    def _syn(self, **kw):
        segment = TCPSegment(src_port=7000, dst_port=80, seq=100, flags=SYN)
        for name, value in kw.items():
            setattr(segment, name, value)
        return IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)

    def test_bad_checksum_syn_creates_nothing(self):
        world = mini_topology(with_gfw=False)
        world.client.send_raw(self._syn(checksum_override=0x1234))
        world.run(0.5)
        assert (80, CLIENT_IP, 7000) not in world.server_tcp.connections

    def test_md5_syn_creates_nothing(self):
        world = mini_topology(with_gfw=False)
        world.client.send_raw(self._syn(options=[MD5SignatureOption()]))
        world.run(0.5)
        assert (80, CLIENT_IP, 7000) not in world.server_tcp.connections

    def test_oversize_length_syn_creates_nothing(self):
        world = mini_topology(with_gfw=False)
        packet = self._syn()
        packet.total_length_override = 9999
        world.client.send_raw(packet)
        world.run(0.5)
        assert (80, CLIENT_IP, 7000) not in world.server_tcp.connections

    def test_clean_syn_creates_connection(self):
        from dataclasses import replace

        world = mini_topology(with_gfw=False)
        # The raw SYN has no client-side connection; keep the client's
        # own stack from RST-ing the returning SYN/ACK as a stray.
        world.client_tcp.profile = replace(
            world.client_tcp.profile, rst_on_stray_packets=False
        )
        world.client.send_raw(self._syn(options=[MSSOption()]))
        world.run(0.5)
        connection = world.server_tcp.connections[(80, CLIENT_IP, 7000)]
        assert connection.tcb.state is TCPState.SYN_RECV

    def test_non_syn_to_listener_is_stray(self):
        world = mini_topology(with_gfw=False)
        data = self._syn(flags=ACK, payload=b"hello")
        world.client.send_raw(data)
        world.run(0.5)
        assert world.server_tcp.stray_rsts_sent == 1


class TestHalfCloseStates:
    def _pair(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        accepted = []
        world.server_tcp.listen(80, accepted.append)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        return world, connection, accepted[0]

    def test_fin_wait_2_then_remote_fin(self):
        world, client, server = self._pair()
        client.close()
        world.run(0.5)
        assert client.state is TCPState.FIN_WAIT_2
        assert server.state is TCPState.CLOSE_WAIT
        server.close()
        world.run(0.5)
        assert client.state is TCPState.TIME_WAIT

    def test_time_wait_expires_to_closed(self):
        world, client, server = self._pair()
        client.close()
        world.run(0.5)
        server.close()
        world.run(3.0)
        assert client.state is TCPState.CLOSED
        assert server.state is TCPState.CLOSED

    def test_data_during_close_wait_still_flows(self):
        world, client, server = self._pair()
        received = []
        client.on_data = lambda conn, data: received.append(data)
        client.close()
        world.run(0.5)
        server.send(b"parting words")  # CLOSE_WAIT may still send
        world.run(0.5)
        assert received == [b"parting words"]

    def test_rst_in_time_wait_closes_immediately(self):
        world, client, server = self._pair()
        client.close()
        world.run(0.5)
        server.close()
        world.run(0.3)
        assert client.state is TCPState.TIME_WAIT
        # Forge a server-side RST at the exact expected sequence.
        rst = IPPacket(
            src=SERVER_IP, dst=CLIENT_IP,
            payload=TCPSegment(
                src_port=80, dst_port=client.tcb.local_port,
                seq=client.tcb.rcv_nxt, flags=RST,
            ),
        )
        world.server.send_raw(rst)
        world.run(0.3)
        assert client.state is TCPState.CLOSED


class TestGFWFragmentReassembly:
    def test_gfw_reassembles_fragments_and_detects(self):
        """A fragmented keyword request does not evade by itself: the
        device's own reassembler restores it (first-wins has nothing to
        prefer without overlaps)."""
        world = mini_topology()
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        request = connection.make_packet(
            flags=ACK,
            payload=b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        for fragment in fragment_packet(request, 24):
            world.client.send_raw(fragment)
        world.run(2.0)
        assert detections(world) == 1

    def test_incomplete_fragments_never_inspected(self):
        world = mini_topology()
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(1.0)
        request = connection.make_packet(
            flags=ACK,
            payload=b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        fragments = fragment_packet(request, 24)
        for fragment in fragments[:-1]:  # withhold the last piece
            world.client.send_raw(fragment)
        world.run(2.0)
        assert detections(world) == 0


class TestGFWSequenceWindow:
    def test_data_just_inside_window_accepted(self):
        from repro.analysis.probe import GFWHarness

        harness = GFWHarness()
        harness.establish()
        data = harness._client_segment(
            ACK, seq=seq_add(harness.client_snd_nxt(), 60000),
            ack=harness.client_rcv_nxt(), payload=b"x" * 8,
        )
        harness.send_from_client(data)
        flow = harness.flow()
        assert flow.buffer.pending_bytes() == 8  # queued out-of-order

    def test_data_just_outside_window_ignored(self):
        from repro.analysis.probe import GFWHarness

        harness = GFWHarness()
        harness.establish()
        data = harness._client_segment(
            ACK, seq=seq_add(harness.client_snd_nxt(), 70000),
            ack=harness.client_rcv_nxt(), payload=b"x" * 8,
        )
        harness.send_from_client(data)
        assert harness.flow().buffer.pending_bytes() == 0


class TestTraceRecorder:
    def test_predicate_filters_events(self):
        recorder = TraceRecorder(
            enabled=True,
            predicate=lambda event: event.action == "send",
        )
        recorder.record(0.0, "a", "send")
        recorder.record(0.0, "a", "deliver")
        assert len(recorder) == 1

    def test_clear(self):
        recorder = TraceRecorder(enabled=True)
        recorder.record(0.0, "a", "send")
        recorder.clear()
        assert len(recorder) == 0

    def test_event_format_includes_note(self):
        event = TraceEvent(0.001, "gfw", "drop", "pkt", note="ttl-expired")
        assert "ttl-expired" in event.format()
        assert "1.000ms" in event.format()

    def test_ladder_sorted_by_time(self):
        recorder = TraceRecorder(enabled=True)
        recorder.record(2.0, "b", "deliver")
        recorder.record(1.0, "a", "send")
        ladder = recorder.format_ladder().splitlines()
        assert "send" in ladder[0]
        assert "deliver" in ladder[1]


class TestCalibrationObject:
    def test_variant_does_not_mutate_original(self):
        from repro.experiments.calibration import DEFAULT_CALIBRATION

        changed = DEFAULT_CALIBRATION.variant(hop_delta=5)
        assert changed.hop_delta == 5
        assert DEFAULT_CALIBRATION.hop_delta == 2

    def test_clean_room_is_noise_free(self):
        from repro.experiments.calibration import CLEAN_ROOM

        assert CLEAN_ROOM.gfw_miss_probability == 0.0
        assert CLEAN_ROOM.base_loss_rate == 0.0
        assert CLEAN_ROOM.route_drift_probability == 0.0
        assert CLEAN_ROOM.stateful_firewall_fraction == 0.0


class TestDNSCodecCorners:
    def test_max_length_label(self):
        from repro.apps.dns import encode_query, extract_query_name

        label = "a" * 63
        assert extract_query_name(encode_query(1, label)) == label

    def test_oversized_label_rejected(self):
        from repro.apps.dns import encode_query

        with pytest.raises(ValueError):
            encode_query(1, "a" * 64)

    def test_compressed_names_rejected_not_crashed(self):
        from repro.apps.dns import parse_message

        # Header + a name starting with a compression pointer (0xC0).
        blob = (b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                b"\xc0\x0c\x00\x01\x00\x01")
        with pytest.raises(ValueError):
            parse_message(blob)

    def test_response_with_multiple_answers(self):
        import struct

        from repro.apps.dns import encode_response, parse_message
        from repro.netstack.packet import ip_to_int

        raw = encode_response(5, "x.example", "1.1.1.1")
        # Append a second A record by hand and bump ancount.
        extra = (b"\x01x\x07example\x00" + struct.pack("!HHIH", 1, 1, 60, 4)
                 + struct.pack("!I", ip_to_int("2.2.2.2")))
        raw = raw[:6] + struct.pack("!H", 2) + raw[8:] + extra
        message = parse_message(raw)
        assert message.answers == ["1.1.1.1", "2.2.2.2"]
