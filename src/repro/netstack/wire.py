"""Byte-level serialization and parsing for IPv4, TCP, and UDP.

The simulator mostly moves packet *objects*, but wire images matter in
three places, all of which the paper exploits:

1. Checksums — an insertion packet's "bad checksum" must be a real wrong
   16-bit value so that endpoint validation (and the GFW's lack of it) are
   exercised for real;
2. IP fragmentation — fragments split the serialized transport segment at
   arbitrary 8-byte boundaries, so the bytes must exist;
3. Header-length corruption — a TCP data offset below 5 words must survive
   a serialize/parse round trip as an observable anomaly.

Serialization is a hot path (every hop traversal in a paper-scale sweep
may reserialize), so headers are packed exactly once: the checksum is
computed arithmetically from the header fields plus the body's word sum
(ones-complement addition is order-independent) and packed directly into
place, rather than packing a zero-checksum image and splicing the
checksum in afterwards.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Optional, Tuple, Union

from repro.netstack.checksum import (
    fold_carries,
    ones_complement_sum,
    pseudo_header_sum,
)
from repro.netstack.options import parse_options, serialize_options
from repro.netstack.packet import (
    IPPacket,
    PROTO_TCP,
    PROTO_UDP,
    TCPSegment,
    UDPDatagram,
    ip_to_int,
    int_to_ip,
)

IP_HEADER_LEN = 20
TCP_MIN_HEADER_LEN = 20
UDP_HEADER_LEN = 8

_TCP_HEADER = struct.Struct("!HHIIBBHHH")
_UDP_HEADER = struct.Struct("!HHHH")
_IP_HEADER = struct.Struct("!BBHHHBBHII")


@lru_cache(maxsize=4096)
def _ip_word_sum_raw(address: str) -> int:
    """``ip_to_int`` with caching.

    Scenario topologies reuse a small set of addresses millions of times
    across a sweep; caching skips the repeated string parse.
    """
    return ip_to_int(address)


@lru_cache(maxsize=2048)
def _body_word_sum(body: bytes) -> int:
    """Ones-complement word sum of a segment body, pre-packed per blob.

    A sweep serializes the *same* byte bodies over and over — every trial
    of a cell sends the identical HTTP request, and fragmentation
    strategies re-split it per trial — so the O(n) word fold runs once
    per distinct blob.  Keyed on the bytes object itself: Python caches a
    bytes object's hash in-object and segment copies share payload
    references, so repeat lookups cost one cached-hash dict probe.
    """
    return ones_complement_sum(body)


def _tcp_checksum(
    segment: TCPSegment, src: str, dst: str, options_blob: bytes, offset_byte: int
) -> int:
    """The correct checksum of ``segment``'s fields as emitted: header
    words (``offset_byte`` carries the emitted data offset), pseudo
    header and body, summed arithmetically."""
    seq = segment.seq & 0xFFFFFFFF
    ack = segment.ack & 0xFFFFFFFF
    body = options_blob + segment.payload
    total = (
        segment.src_port + segment.dst_port
        + (seq >> 16) + (seq & 0xFFFF)
        + (ack >> 16) + (ack & 0xFFFF)
        + ((offset_byte << 8) | (segment.flags & 0x3F))
        + (segment.window & 0xFFFF) + (segment.urgent & 0xFFFF)
        + pseudo_header_sum(
            _ip_word_sum_raw(src), _ip_word_sum_raw(dst),
            PROTO_TCP, TCP_MIN_HEADER_LEN + len(body),
        )
        + _body_word_sum(body)
    )
    return (~fold_carries(total)) & 0xFFFF


def _offset_byte(segment: TCPSegment, options_blob: bytes) -> int:
    """The data-offset byte ``segment`` is emitted with."""
    emitted_offset = (
        segment.data_offset_override
        if segment.data_offset_override is not None
        else (TCP_MIN_HEADER_LEN + len(options_blob)) // 4
    )
    return (emitted_offset & 0xF) << 4


def serialize_tcp(segment: TCPSegment, src: str, dst: str) -> bytes:
    """Serialize a TCP segment, computing (or overriding) its checksum.

    ``src``/``dst`` are needed for the pseudo header.  When
    ``checksum_override`` is set, that value is emitted verbatim — this is
    how "bad checksum" insertion packets are made.
    """
    options_blob = serialize_options(segment.options)
    offset_byte = _offset_byte(segment, options_blob)
    if segment.checksum_override is not None:
        checksum = segment.checksum_override & 0xFFFF
    else:
        checksum = _tcp_checksum(segment, src, dst, options_blob, offset_byte)
    header = _TCP_HEADER.pack(
        segment.src_port,
        segment.dst_port,
        segment.seq & 0xFFFFFFFF,
        segment.ack & 0xFFFFFFFF,
        offset_byte,
        segment.flags & 0x3F,
        segment.window & 0xFFFF,
        checksum,
        segment.urgent & 0xFFFF,
    )
    return header + options_blob + segment.payload


def parse_tcp(blob: bytes) -> TCPSegment:
    """Parse wire bytes back into a :class:`TCPSegment`.

    The parsed segment keeps the on-wire checksum in ``checksum_override``;
    callers compare against a recomputation to validate.  A data offset
    below 5 words is preserved in ``data_offset_override``.
    """
    if len(blob) < TCP_MIN_HEADER_LEN:
        raise ValueError("truncated TCP header")
    (
        src_port,
        dst_port,
        seq,
        ack,
        offset_byte,
        flags,
        window,
        checksum,
        urgent,
    ) = _TCP_HEADER.unpack(blob[:TCP_MIN_HEADER_LEN])
    data_offset = (offset_byte >> 4) & 0xF
    header_len = data_offset * 4
    anomalous_offset: Optional[int] = None
    if header_len < TCP_MIN_HEADER_LEN or header_len > len(blob):
        # Illegal header length: keep the raw value, treat all bytes past
        # the fixed header as payload (what a naive DPI engine would do).
        anomalous_offset = data_offset
        options = []
        payload = blob[TCP_MIN_HEADER_LEN:]
    else:
        options = parse_options(blob[TCP_MIN_HEADER_LEN:header_len])
        payload = blob[header_len:]
    return TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        payload=payload,
        options=options,
        urgent=urgent,
        checksum_override=checksum,
        data_offset_override=anomalous_offset,
    )


def tcp_checksum(segment: TCPSegment, src: str, dst: str) -> int:
    """The checksum :func:`serialize_tcp` would emit for ``segment``
    without its ``checksum_override``, worked out from the fields:
    nothing is copied or serialized but the options."""
    options_blob = serialize_options(segment.options)
    return _tcp_checksum(
        segment, src, dst, options_blob, _offset_byte(segment, options_blob)
    )


def tcp_checksum_valid(segment: TCPSegment, src: str, dst: str) -> bool:
    """True when the segment would carry a correct checksum on the wire."""
    override = segment.checksum_override
    return override is None or tcp_checksum(segment, src, dst) == override & 0xFFFF


def serialize_udp(datagram: UDPDatagram, src: str, dst: str) -> bytes:
    length = UDP_HEADER_LEN + len(datagram.payload)
    if datagram.checksum_override is not None:
        checksum = datagram.checksum_override & 0xFFFF
    else:
        total = (
            datagram.src_port + datagram.dst_port + length
            + pseudo_header_sum(
                _ip_word_sum_raw(src), _ip_word_sum_raw(dst), PROTO_UDP, length,
            )
            + _body_word_sum(datagram.payload)
        )
        checksum = ((~fold_carries(total)) & 0xFFFF) or 0xFFFF
    header = _UDP_HEADER.pack(
        datagram.src_port, datagram.dst_port, length, checksum
    )
    return header + datagram.payload


def parse_udp(blob: bytes) -> UDPDatagram:
    if len(blob) < UDP_HEADER_LEN:
        raise ValueError("truncated UDP header")
    src_port, dst_port, length, checksum = _UDP_HEADER.unpack(blob[:8])
    return UDPDatagram(
        src_port=src_port,
        dst_port=dst_port,
        payload=blob[8 : max(8, length)],
        checksum_override=checksum,
    )


def serialize_ip(packet: IPPacket) -> bytes:
    """Serialize a whole IPv4 packet including its transport payload."""
    body = transport_bytes(packet)
    actual_total = IP_HEADER_LEN + len(body)
    emitted_total = (
        packet.total_length_override
        if packet.total_length_override is not None
        else actual_total
    )
    flags_and_offset = packet.frag_offset & 0x1FFF
    if packet.dont_fragment:
        flags_and_offset |= 0x4000
    if packet.more_fragments:
        flags_and_offset |= 0x2000
    version_word = ((4 << 4) | 5) << 8  # version/IHL byte, zero TOS
    ttl_proto_word = ((packet.ttl & 0xFF) << 8) | packet.protocol
    src_int = _ip_word_sum_raw(packet.src)
    dst_int = _ip_word_sum_raw(packet.dst)
    total = (
        version_word
        + (emitted_total & 0xFFFF)
        + (packet.identification & 0xFFFF)
        + flags_and_offset
        + ttl_proto_word
        + (src_int >> 16) + (src_int & 0xFFFF)
        + (dst_int >> 16) + (dst_int & 0xFFFF)
    )
    checksum = (~fold_carries(total)) & 0xFFFF
    header = _IP_HEADER.pack(
        (4 << 4) | 5,
        0,
        emitted_total & 0xFFFF,
        packet.identification & 0xFFFF,
        flags_and_offset,
        packet.ttl & 0xFF,
        packet.protocol,
        checksum,
        src_int,
        dst_int,
    )
    return header + body


def transport_bytes(packet: IPPacket) -> bytes:
    """Serialize just the transport payload of ``packet``."""
    if isinstance(packet.payload, TCPSegment):
        return serialize_tcp(packet.payload, packet.src, packet.dst)
    if isinstance(packet.payload, UDPDatagram):
        return serialize_udp(packet.payload, packet.src, packet.dst)
    return bytes(packet.payload)


def tcp_wire_length(segment: TCPSegment) -> int:
    """The serialized length of ``segment`` without serializing it."""
    options_len = len(serialize_options(segment.options)) if segment.options else 0
    return TCP_MIN_HEADER_LEN + options_len + len(segment.payload)


def parse_ip(blob: bytes) -> IPPacket:
    """Parse wire bytes into an :class:`IPPacket`.

    Fragments (offset > 0 or MF set) keep raw transport bytes as payload;
    a :class:`~repro.netstack.fragment.FragmentReassembler` restores the
    transport object once all pieces arrive.
    """
    if len(blob) < IP_HEADER_LEN:
        raise ValueError("truncated IP header")
    (
        version_ihl,
        _tos,
        total_length,
        identification,
        flags_and_offset,
        ttl,
        protocol,
        _checksum,
        src_int,
        dst_int,
    ) = _IP_HEADER.unpack(blob[:IP_HEADER_LEN])
    ihl = (version_ihl & 0xF) * 4
    body = blob[ihl:]
    frag_offset = flags_and_offset & 0x1FFF
    more_fragments = bool(flags_and_offset & 0x2000)
    dont_fragment = bool(flags_and_offset & 0x4000)
    payload: Union[TCPSegment, UDPDatagram, bytes]
    if frag_offset > 0 or more_fragments:
        payload = body
    elif protocol == PROTO_TCP:
        payload = parse_tcp(body)
    elif protocol == PROTO_UDP:
        payload = parse_udp(body)
    else:
        payload = body
    packet = IPPacket(
        src=int_to_ip(src_int),
        dst=int_to_ip(dst_int),
        payload=payload,
        ttl=ttl,
        identification=identification,
        dont_fragment=dont_fragment,
        more_fragments=more_fragments,
        frag_offset=frag_offset,
    )
    if total_length != ihl + len(body):
        packet.total_length_override = total_length
    return packet


def roundtrip(packet: IPPacket) -> IPPacket:
    """Serialize then reparse a packet (useful in tests)."""
    return parse_ip(serialize_ip(packet))


def wire_lengths(packet: IPPacket) -> Tuple[int, int]:
    """Return ``(emitted_total_length, actual_total_length)`` for a packet.

    A mismatch is the Table 3 "IP total length > actual length" anomaly.
    Lengths are computed arithmetically — every endpoint checks them on
    every delivered packet, and serializing (which also checksums the
    payload) just to take ``len()`` used to dominate the receive path.
    """
    from repro.netstack.packet import transport_length

    actual = IP_HEADER_LEN + transport_length(packet)
    emitted = (
        packet.total_length_override
        if packet.total_length_override is not None
        else actual
    )
    return emitted, actual
