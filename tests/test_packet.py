"""Unit tests for the packet dataclasses and sequence arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.netstack.packet import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
    flags_to_str,
    in_window,
    int_to_ip,
    ip_to_int,
    seq_add,
    seq_lt,
    seq_lte,
    seq_sub,
    tcp_packet,
    udp_packet,
)


class TestFlags:
    def test_pure_syn(self):
        assert TCPSegment(1, 2, flags=SYN).is_pure_syn
        assert not TCPSegment(1, 2, flags=SYN | ACK).is_pure_syn

    def test_synack(self):
        assert TCPSegment(1, 2, flags=SYN | ACK).is_synack
        assert not TCPSegment(1, 2, flags=SYN).is_synack
        assert not TCPSegment(1, 2, flags=SYN | ACK | RST).is_synack

    def test_no_flags(self):
        assert TCPSegment(1, 2, flags=0).has_no_flags
        assert not TCPSegment(1, 2, flags=ACK).has_no_flags

    def test_flag_string(self):
        assert flags_to_str(SYN | ACK) == "SA"
        assert flags_to_str(RST) == "R"
        assert flags_to_str(FIN | PSH | ACK) == "FPA"
        assert flags_to_str(0) == "-"


class TestSequenceSpace:
    def test_seg_len_counts_syn_and_fin(self):
        assert TCPSegment(1, 2, flags=SYN).seg_len == 1
        assert TCPSegment(1, 2, flags=FIN, payload=b"ab").seg_len == 3
        assert TCPSegment(1, 2, flags=ACK, payload=b"abc").seg_len == 3

    def test_end_seq_wraps(self):
        segment = TCPSegment(1, 2, seq=0xFFFFFFFF, flags=SYN)
        assert segment.end_seq == 0

    def test_seq_lt_wraparound(self):
        assert seq_lt(0xFFFFFFF0, 5)
        assert not seq_lt(5, 0xFFFFFFF0)
        assert seq_lt(1, 2)
        assert not seq_lt(2, 2)

    def test_seq_lte(self):
        assert seq_lte(2, 2)
        assert seq_lte(1, 2)

    def test_seq_sub_signed(self):
        assert seq_sub(10, 3) == 7
        assert seq_sub(3, 10) == -7
        assert seq_sub(2, 0xFFFFFFFE) == 4

    def test_in_window(self):
        assert in_window(105, 100, 10)
        assert in_window(100, 100, 10)
        assert not in_window(110, 100, 10)
        assert in_window(2, 0xFFFFFFFE, 10)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**31 - 2))
    def test_seq_add_sub_roundtrip(self, base, delta):
        assert seq_sub(seq_add(base, delta), base) == delta


class TestAddresses:
    def test_roundtrip(self):
        for address in ("0.0.0.0", "255.255.255.255", "10.1.2.3"):
            assert int_to_ip(ip_to_int(address)) == address

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ip_to_int("300.1.1.1")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            int_to_ip(2**32)

    @given(st.integers(0, 2**32 - 1))
    def test_int_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestIPPacket:
    def test_protocol_detection(self):
        assert tcp_packet("1.1.1.1", "2.2.2.2", 1, 2).protocol == 6
        assert udp_packet("1.1.1.1", "2.2.2.2", 1, 2).protocol == 17

    def test_accessors_raise_on_wrong_kind(self):
        packet = udp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        with pytest.raises(TypeError):
            _ = packet.tcp
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        with pytest.raises(TypeError):
            _ = packet.udp

    def test_flow_key_directional(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80)
        assert packet.flow_key() == ("1.1.1.1", 1000, "2.2.2.2", 80)

    def test_connection_key_direction_agnostic(self):
        forward = tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80)
        backward = tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000)
        assert forward.connection_key() == backward.connection_key()

    def test_fragment_flag(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        assert not packet.is_fragment
        packet.more_fragments = True
        assert packet.is_fragment

    def test_copy_is_deep_for_payload_and_meta(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x")
        packet.meta["origin"] = "a"
        duplicate = packet.copy()
        duplicate.tcp.seq = 99
        duplicate.meta["origin"] = "b"
        assert packet.tcp.seq == 0
        assert packet.meta["origin"] == "a"

    def test_segment_copy_does_not_share_options(self):
        from repro.netstack.options import MSSOption

        segment = TCPSegment(1, 2, options=[MSSOption()])
        duplicate = segment.copy()
        duplicate.options.append(MSSOption(mss=5))
        assert len(segment.options) == 1

    def test_summary_mentions_corruption(self):
        segment = TCPSegment(1, 2, checksum_override=0xBEEF)
        assert "badcsum" in segment.summary()

    def test_udp_summary(self):
        assert "UDP" in UDPDatagram(5, 53, b"abc").summary()

    def test_packet_summary_includes_ttl(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, ttl=7)
        assert "ttl=7" in packet.summary()
