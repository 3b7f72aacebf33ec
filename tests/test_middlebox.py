"""Middlebox tests: each Table 2 behaviour plus the stateful firewall."""

import random

import pytest

from repro.middlebox import boxes
from repro.netstack.fragment import fragment_packet
from repro.netstack.options import MD5SignatureOption
from repro.netstack.packet import ACK, FIN, RST, SYN, seq_add, tcp_packet
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


def _sanitizer(profile, rng=None):
    """The profile's field sanitizer, built as a scenario builds it."""
    (box,) = [
        box for box in profile.build_boxes(hop=2, rng=rng)
        if isinstance(box, FieldSanitizerBox)
    ]
    return box


#: A fixed FIN/RST/no-flag mix: every third segment carries a bad
#: checksum and every seventh an unsolicited MD5 option.
_MIXED_FLAGS = [
    FIN | ACK, RST, 0, ACK, RST | ACK, FIN | RST, FIN | ACK, RST, 0, FIN | ACK,
] * 4


def _mixed_sequence():
    packets = []
    for index, flags in enumerate(_MIXED_FLAGS):
        packet = _data_packet(
            payload=b"x", flags=flags, seq=1 + index,
            checksum=0xDEAD if index % 3 == 0 else None,
        )
        if index % 7 == 6:
            packet.tcp.options.append(MD5SignatureOption())
        packets.append(packet)
    return packets


class TestSanitizerTrims:
    """What the sanitizer may skip without changing any outcome."""

    @pytest.mark.parametrize(
        "profile", [PROFILE_ALIYUN, PROFILE_QCLOUD, PROFILE_UNICOM_SJZ],
        ids=lambda profile: profile.name,
    )
    def test_checksum_unread_where_the_profile_forwards_it(
        self, profile, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("checksum computed for a profile that ignores it")

        monkeypatch.setattr(boxes, "tcp_checksum_valid", refuse)
        box = _sanitizer(profile)
        packet = _data_packet(checksum=0xDEAD)
        assert box.process(packet, C2S, 0.0).verdict is Verdict.FORWARD
        assert box.dropped == {}

    def test_unicom_tj_still_drops_bad_checksums(self):
        box = _sanitizer(PROFILE_UNICOM_TJ)
        packet = _data_packet(checksum=0xDEAD)
        assert box.process(packet, C2S, 0.0).verdict is Verdict.DROP
        assert box.dropped == {"bad-checksum": 1}
        assert box.process(_data_packet(), C2S, 0.0).verdict is Verdict.FORWARD

    @pytest.mark.parametrize(
        "profile, flag, label",
        [(PROFILE_ALIYUN, FIN, "fin"), (PROFILE_QCLOUD, RST, "rst")],
        ids=["aliyun-fin", "qcloud-rst"],
    )
    def test_sometimes_rolls_draw_once_per_rolled_packet(
        self, profile, flag, label
    ):
        box = _sanitizer(profile, rng=random.Random(2017))
        packets = _mixed_sequence()
        rolled = [
            packet for packet in packets
            if packet.tcp.flags & flag and not packet.tcp.options
        ]
        verdicts = [box.process(packet, C2S, 0.0).verdict for packet in packets]
        assert len(rolled) == 14
        assert box.dropped == {label: 7}
        assert verdicts.count(Verdict.DROP) == 7
        reference = random.Random(2017)
        for _ in rolled:
            reference.random()
        assert box.rng.getstate() == reference.getstate()


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

    @pytest.mark.parametrize("first_from_client", [True, False])
    def test_one_entry_per_connection_either_direction(self, first_from_client):
        """The entry's key orders the two ends, so a connection opened
        from either side is one entry that both directions find."""
        near, far = (A, B) if first_from_client else (B, A)
        box = StatefulFirewallBox("fw", 3)
        box.process(tcp_packet(near, far, 1000, 80, flags=SYN, seq=100), C2S, 0.0)
        box.process(
            tcp_packet(far, near, 80, 1000, flags=SYN | ACK, seq=500, ack=101),
            Direction.SERVER_TO_CLIENT, 0.0,
        )
        assert len(box._entries) == 1
        box.process(
            tcp_packet(far, near, 80, 1000, flags=RST, seq=501),
            Direction.SERVER_TO_CLIENT, 0.0,
        )
        assert box.teardowns == 1
        data = tcp_packet(near, far, 1000, 80, flags=ACK, seq=101, payload=b"x")
        assert box.process(data, C2S, 0.0).verdict is Verdict.DROP
        assert len(box._entries) == 1

    def test_teardown_on_fin(self):
        box = StatefulFirewallBox("fw", 3)
        self._handshake(box)
        fin = tcp_packet(A, B, 1000, 80, flags=FIN | ACK, seq=101, ack=501)
        box.process(fin, C2S, 0.0)
        assert box.teardowns == 1
