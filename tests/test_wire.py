"""Serialization/parsing tests, including the corrupted-field round trips
that insertion packets depend on."""

import pytest
from hypothesis import given, strategies as st

from repro.netstack.options import (
    MD5SignatureOption,
    MSSOption,
    SACKPermittedOption,
    TimestampOption,
    WindowScaleOption,
    parse_options,
    serialize_options,
    timestamp_option,
)
from repro.netstack.packet import ACK, IPPacket, SYN, TCPSegment, UDPDatagram
from repro.netstack.wire import (
    parse_ip,
    parse_tcp,
    parse_udp,
    roundtrip,
    serialize_ip,
    serialize_tcp,
    serialize_udp,
    tcp_checksum_valid,
    wire_lengths,
)

SRC, DST = "10.0.0.1", "10.0.0.2"


def _segment(**kw):
    defaults = dict(src_port=1234, dst_port=80, seq=111, ack=222, flags=ACK)
    defaults.update(kw)
    return TCPSegment(**defaults)


class TestTCPWire:
    def test_roundtrip_preserves_fields(self):
        segment = _segment(payload=b"hello", window=4096, urgent=7)
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        assert parsed.src_port == 1234
        assert parsed.dst_port == 80
        assert parsed.seq == 111
        assert parsed.ack == 222
        assert parsed.flags == ACK
        assert parsed.window == 4096
        assert parsed.urgent == 7
        assert parsed.payload == b"hello"

    def test_correct_checksum_validates(self):
        segment = _segment(payload=b"data")
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        assert tcp_checksum_valid(parsed, SRC, DST)

    def test_checksum_depends_on_addresses(self):
        """The pseudo header ties the checksum to the IP addresses."""
        segment = _segment(payload=b"data")
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        assert not tcp_checksum_valid(parsed, SRC, "10.0.0.3")

    def test_override_emits_verbatim_and_fails_validation(self):
        segment = _segment(checksum_override=0xBEEF)
        wire = serialize_tcp(segment, SRC, DST)
        assert wire[16:18] == b"\xbe\xef"
        parsed = parse_tcp(wire)
        assert not tcp_checksum_valid(parsed, SRC, DST)

    def test_fresh_segment_is_considered_valid(self):
        assert tcp_checksum_valid(_segment(), SRC, DST)

    def test_short_header_roundtrip(self):
        segment = _segment(data_offset_override=4)
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        assert parsed.data_offset_override == 4

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            parse_tcp(b"\x00" * 10)

    def test_options_roundtrip_through_wire(self):
        segment = _segment(
            flags=SYN,
            options=[MSSOption(mss=1400), TimestampOption(tsval=5, tsecr=9)],
        )
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        kinds = [option.kind for option in parsed.options]
        assert 2 in kinds and 8 in kinds
        timestamp = parsed.find_option(8)
        assert timestamp.tsval == 5 and timestamp.tsecr == 9

    def test_md5_option_roundtrip(self):
        segment = _segment(options=[MD5SignatureOption(digest=b"\x42" * 16)])
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        md5 = parsed.find_option(19)
        assert md5 is not None
        assert md5.digest == b"\x42" * 16

    @given(st.binary(max_size=64), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, payload, seq, ack):
        segment = _segment(seq=seq, ack=ack, payload=payload)
        parsed = parse_tcp(serialize_tcp(segment, SRC, DST))
        assert parsed.seq == seq
        assert parsed.ack == ack
        assert parsed.payload == payload
        assert tcp_checksum_valid(parsed, SRC, DST)


class TestOptionsBlob:
    def test_padding_to_word_boundary(self):
        blob = serialize_options([WindowScaleOption(shift=2)])
        assert len(blob) % 4 == 0

    def test_malformed_trailing_bytes_discarded(self):
        blob = serialize_options([MSSOption()]) + b"\x08\x0a"  # truncated ts
        options = parse_options(blob)
        assert [option.kind for option in options] == [2]

    def test_unknown_option_preserved(self):
        blob = b"\xfd\x03\x99"  # kind 253, len 3, one data byte
        options = parse_options(blob)
        assert options[0].kind == 253
        assert options[0].data == b"\x99"

    def test_sack_permitted(self):
        blob = serialize_options([SACKPermittedOption()])
        assert parse_options(blob)[0].kind == 4

    def test_timestamp_option_shortcut_equals_the_dataclass(self):
        built = TimestampOption(tsval=0xFFFFFFFF, tsecr=7)
        fast = timestamp_option(0xFFFFFFFF, 7)
        assert fast == built and hash(fast) == hash(built)
        assert repr(fast) == repr(built)
        assert vars(fast) == vars(built)
        assert list(vars(fast)) == list(vars(built))
        assert fast.to_bytes() == built.to_bytes()
        assert parse_options(serialize_options([fast])) == [built]

    def test_md5_requires_16_byte_digest(self):
        with pytest.raises(ValueError):
            MD5SignatureOption(digest=b"short")


class TestUDPWire:
    def test_roundtrip(self):
        datagram = UDPDatagram(src_port=5353, dst_port=53, payload=b"q")
        parsed = parse_udp(serialize_udp(datagram, SRC, DST))
        assert parsed.src_port == 5353
        assert parsed.dst_port == 53
        assert parsed.payload == b"q"

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            parse_udp(b"\x00" * 4)


class TestIPWire:
    def test_whole_packet_roundtrip(self):
        packet = IPPacket(src=SRC, dst=DST, payload=_segment(payload=b"xyz"), ttl=33)
        parsed = roundtrip(packet)
        assert parsed.src == SRC
        assert parsed.dst == DST
        assert parsed.ttl == 33
        assert parsed.tcp.payload == b"xyz"

    def test_udp_packet_roundtrip(self):
        packet = IPPacket(
            src=SRC, dst=DST, payload=UDPDatagram(9, 53, b"abc")
        )
        parsed = roundtrip(packet)
        assert parsed.is_udp
        assert parsed.udp.payload == b"abc"

    def test_total_length_override_detected(self):
        packet = IPPacket(src=SRC, dst=DST, payload=_segment())
        packet.total_length_override = 999
        emitted, actual = wire_lengths(packet)
        assert emitted == 999
        assert actual < 999

    def test_fragment_keeps_raw_payload(self):
        packet = IPPacket(
            src=SRC, dst=DST, payload=_segment(payload=b"A" * 32)
        )
        wire = serialize_ip(packet)
        # Hand-craft a fragment header: MF set, offset 0.
        fragment = IPPacket(
            src=SRC, dst=DST, payload=wire[20:44], more_fragments=True
        )
        parsed = parse_ip(serialize_ip(fragment))
        assert parsed.is_fragment
        assert isinstance(parsed.payload, bytes)

    def test_truncated_ip_rejected(self):
        with pytest.raises(ValueError):
            parse_ip(b"\x45\x00")
