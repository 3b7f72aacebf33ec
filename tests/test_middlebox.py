"""Middlebox tests: each Table 2 behaviour plus the stateful firewall."""

import random

import pytest

from repro.netstack.fragment import fragment_packet
from repro.netstack.options import MD5SignatureOption
from repro.netstack.packet import ACK, FIN, RST, SYN, IPPacket, TCPSegment, seq_add, tcp_packet
from repro.netsim.path import Direction, Verdict
from repro.middlebox import (
    FieldSanitizerBox,
    FragmentHandlingBox,
    FragmentMode,
    PROFILE_ALIYUN,
    PROFILE_QCLOUD,
    PROFILE_TRANSPARENT,
    PROFILE_UNICOM_SJZ,
    PROFILE_UNICOM_TJ,
    PROVIDER_PROFILES,
    StatefulFirewallBox,
)

A, B = "10.0.0.1", "10.0.0.9"
C2S = Direction.CLIENT_TO_SERVER


def _data_packet(payload=b"hello", checksum=None, flags=ACK, seq=1):
    return tcp_packet(
        A, B, 1000, 80, flags=flags, seq=seq, payload=payload,
        checksum_override=checksum,
    )


class TestFragmentHandlingBox:
    def _fragments(self):
        return fragment_packet(_data_packet(payload=b"A" * 64), fragment_size=24)

    def test_pass_mode_forwards_fragments(self):
        box = FragmentHandlingBox("b", 2, mode=FragmentMode.PASS)
        for fragment in self._fragments():
            assert box.process(fragment, C2S, 0.0).verdict is Verdict.FORWARD

    def test_discard_mode(self):
        box = FragmentHandlingBox("b", 2, mode=FragmentMode.DISCARD)
        for fragment in self._fragments():
            assert box.process(fragment, C2S, 0.0).verdict is Verdict.DROP
        assert box.fragments_discarded == len(self._fragments())

    def test_reassemble_mode_emits_single_whole_packet(self):
        box = FragmentHandlingBox("b", 2, mode=FragmentMode.REASSEMBLE)
        fragments = self._fragments()
        results = [box.process(fragment, C2S, 0.0) for fragment in fragments]
        assert [r.verdict for r in results[:-1]] == [Verdict.DROP] * (len(fragments) - 1)
        final = results[-1]
        assert final.verdict is Verdict.REPLACE
        assert len(final.packets) == 1
        assert final.packets[0].tcp.payload == b"A" * 64

    def test_whole_packets_pass_in_any_mode(self):
        box = FragmentHandlingBox("b", 2, mode=FragmentMode.DISCARD)
        assert box.process(_data_packet(), C2S, 0.0).verdict is Verdict.FORWARD


class TestFieldSanitizerBox:
    def test_bad_checksum_dropped_when_configured(self):
        box = FieldSanitizerBox("b", 2, drop_bad_checksum=1.0)
        packet = _data_packet(checksum=0xDEAD)
        assert box.process(packet, C2S, 0.0).verdict is Verdict.DROP
        assert box.dropped["bad-checksum"] == 1

    def test_good_checksum_passes(self):
        box = FieldSanitizerBox("b", 2, drop_bad_checksum=1.0)
        assert box.process(_data_packet(), C2S, 0.0).verdict is Verdict.FORWARD

    def test_no_flag_dropped(self):
        box = FieldSanitizerBox("b", 2, drop_no_flag=1.0)
        assert box.process(_data_packet(flags=0), C2S, 0.0).verdict is Verdict.DROP

    def test_fin_dropped(self):
        box = FieldSanitizerBox("b", 2, drop_fin=1.0)
        assert box.process(_data_packet(flags=FIN | ACK), C2S, 0.0).verdict is Verdict.DROP

    def test_rst_dropped(self):
        box = FieldSanitizerBox("b", 2, drop_rst=1.0)
        assert box.process(_data_packet(flags=RST), C2S, 0.0).verdict is Verdict.DROP

    def test_sometimes_dropped_is_probabilistic(self):
        box = FieldSanitizerBox("b", 2, drop_rst=0.5, rng=random.Random(7))
        verdicts = [
            box.process(_data_packet(flags=RST), C2S, 0.0).verdict
            for _ in range(200)
        ]
        dropped = verdicts.count(Verdict.DROP)
        assert 60 <= dropped <= 140

    def test_md5_optioned_packets_never_sanitized(self):
        """§5.3: middleboxes do not act on MD5-optioned packets."""
        box = FieldSanitizerBox("b", 2, drop_rst=1.0, drop_fin=1.0, drop_no_flag=1.0)
        rst = _data_packet(flags=RST)
        rst.tcp.options.append(MD5SignatureOption())
        assert box.process(rst, C2S, 0.0).verdict is Verdict.FORWARD

    def test_udp_ignored(self):
        from repro.netstack.packet import udp_packet

        box = FieldSanitizerBox("b", 2, drop_rst=1.0)
        packet = udp_packet(A, B, 5, 53, b"q")
        assert box.process(packet, C2S, 0.0).verdict is Verdict.FORWARD


class TestProviderProfiles:
    def test_table2_aliyun(self):
        profile = PROFILE_ALIYUN
        assert profile.fragment_mode is FragmentMode.DISCARD
        assert profile.drop_fin == 0.5
        assert profile.drop_rst == 0.0

    def test_table2_qcloud(self):
        profile = PROFILE_QCLOUD
        assert profile.fragment_mode is FragmentMode.REASSEMBLE
        assert profile.drop_rst == 0.5

    def test_table2_unicom_sjz(self):
        profile = PROFILE_UNICOM_SJZ
        assert profile.fragment_mode is FragmentMode.REASSEMBLE
        assert profile.drop_fin == 1.0
        assert profile.drop_bad_checksum == 0.0

    def test_table2_unicom_tj(self):
        profile = PROFILE_UNICOM_TJ
        assert profile.drop_bad_checksum == 1.0
        assert profile.drop_no_flag == 1.0
        assert profile.drop_fin == 1.0

    def test_transparent_builds_no_boxes(self):
        assert PROFILE_TRANSPARENT.build_boxes(hop=2) == []

    def test_registry_complete(self):
        assert set(PROVIDER_PROFILES) == {
            "aliyun", "qcloud", "unicom-sjz", "unicom-tj", "transparent"
        }

    def test_build_boxes_positions(self):
        boxes = PROFILE_UNICOM_TJ.build_boxes(hop=3)
        assert all(box.hop == 3 for box in boxes)
        assert len(boxes) == 2  # fragment handler + sanitizer


class TestStatefulFirewall:
    def _handshake(self, box):
        syn = tcp_packet(A, B, 1000, 80, flags=SYN, seq=100)
        box.process(syn, C2S, 0.0)
        synack = tcp_packet(B, A, 80, 1000, flags=SYN | ACK, seq=500, ack=101)
        box.process(synack, Direction.SERVER_TO_CLIENT, 0.0)
        ack = tcp_packet(A, B, 1000, 80, flags=ACK, seq=101, ack=501)
        box.process(ack, C2S, 0.0)

    def test_forged_rst_poisons_connection(self):
        """The §3.4 NAT failure: later real packets are blackholed."""
        box = StatefulFirewallBox("fw", 3)
        self._handshake(box)
        rst = tcp_packet(A, B, 1000, 80, flags=RST, seq=101)
        assert box.process(rst, C2S, 0.0).verdict is Verdict.FORWARD
        data = tcp_packet(A, B, 1000, 80, flags=ACK, seq=101, payload=b"GET /")
        assert box.process(data, C2S, 0.0).verdict is Verdict.DROP
        assert box.packets_blocked == 1

    def test_resets_still_pass_after_teardown(self):
        box = StatefulFirewallBox("fw", 3)
        self._handshake(box)
        box.process(tcp_packet(A, B, 1000, 80, flags=RST, seq=101), C2S, 0.0)
        late_rst = tcp_packet(A, B, 1000, 80, flags=RST, seq=102)
        assert box.process(late_rst, C2S, 0.0).verdict is Verdict.FORWARD

    def test_unknown_connection_passes(self):
        box = StatefulFirewallBox("fw", 3)
        data = tcp_packet(A, B, 2000, 80, flags=ACK, seq=5, payload=b"x")
        assert box.process(data, C2S, 0.0).verdict is Verdict.FORWARD

    def test_sequence_checking_blocks_out_of_window_data(self):
        box = StatefulFirewallBox("fw", 3, check_sequences=True)
        self._handshake(box)
        desync = tcp_packet(
            A, B, 1000, 80, flags=ACK, seq=seq_add(101, 0x40000000), payload=b"j"
        )
        assert box.process(desync, C2S, 0.0).verdict is Verdict.DROP

    def test_sequence_checking_allows_both_directions(self):
        box = StatefulFirewallBox("fw", 3, check_sequences=True)
        self._handshake(box)
        request = tcp_packet(A, B, 1000, 80, flags=ACK, seq=101, payload=b"GET /")
        assert box.process(request, C2S, 0.0).verdict is Verdict.FORWARD
        response = tcp_packet(
            B, A, 80, 1000, flags=ACK, seq=501, ack=106, payload=b"HTTP/1.1 200"
        )
        assert box.process(
            response, Direction.SERVER_TO_CLIENT, 0.0
        ).verdict is Verdict.FORWARD

    def test_probabilistic_teardown(self):
        survived = 0
        for seed in range(200):
            box = StatefulFirewallBox(
                "fw", 3, teardown_probability=0.5, rng=random.Random(seed)
            )
            self._handshake(box)
            box.process(tcp_packet(A, B, 1000, 80, flags=RST, seq=101), C2S, 0.0)
            if box.teardowns == 0:
                survived += 1
        assert 70 <= survived <= 130

    def test_teardown_on_fin(self):
        box = StatefulFirewallBox("fw", 3)
        self._handshake(box)
        fin = tcp_packet(A, B, 1000, 80, flags=FIN | ACK, seq=101, ack=501)
        box.process(fin, C2S, 0.0)
        assert box.teardowns == 1
