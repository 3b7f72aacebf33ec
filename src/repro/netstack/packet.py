"""IPv4 / TCP / UDP packet dataclasses.

Packets travel through the simulator as objects, but every field a real
censor or middlebox can observe is modelled, including the fields that
insertion packets deliberately corrupt:

- ``TCPSegment.checksum_override`` — carry a wrong transport checksum
  ("Bad checksum" rows of Table 1);
- ``TCPSegment.data_offset_override`` — a TCP header length below 20 bytes
  (Table 3 row 2);
- ``IPPacket.total_length_override`` — an IP total length larger than the
  actual packet (Table 3 row 1);
- ``IPPacket.ttl`` — decremented per hop so low-TTL insertion packets die
  between the GFW and the server exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.netstack.options import TCPOption

# TCP flag bits (RFC 793).
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
#: ``flags & HANDSHAKE_FLAGS`` is ``SYN`` on a pure SYN and ``SYN_ACK``
#: on a SYN/ACK: the per-packet handshake tests mask with it.
HANDSHAKE_FLAGS = SYN | ACK | RST | FIN
SYN_ACK = SYN | ACK

PROTO_TCP = 6
PROTO_UDP = 17

_FLAG_NAMES = [(SYN, "S"), (FIN, "F"), (RST, "R"), (PSH, "P"), (ACK, "A"), (URG, "U")]


def flags_to_str(flags: int) -> str:
    """Render a TCP flag bitmask as a compact string like ``"SA"``.

    >>> flags_to_str(SYN | ACK)
    'SA'
    >>> flags_to_str(0)
    '-'
    """
    text = "".join(name for bit, name in _FLAG_NAMES if flags & bit)
    return text or "-"


def ip_to_int(address: str) -> int:
    """Convert dotted-quad notation to a 32-bit integer.

    >>> hex(ip_to_int("10.0.0.1"))
    '0xa000001'
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer back to dotted-quad notation.

    >>> int_to_ip(0x0A000001)
    '10.0.0.1'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 address out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(slots=True)
class TCPSegment:
    """A TCP segment with every censorship-relevant knob exposed.

    ``slots=True``: packets are the simulator's hottest allocation (every
    hop traversal copies), and slotted instances are smaller and faster
    to create than ``__dict__``-backed ones.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    payload: bytes = b""
    options: List[TCPOption] = field(default_factory=list)
    urgent: int = 0
    #: When set, serialized with this (typically wrong) checksum instead of
    #: the computed one.  ``None`` means "compute the correct checksum".
    checksum_override: Optional[int] = None
    #: When set, the header length field is forced to this many 32-bit
    #: words; values below 5 make the header illegally short.
    data_offset_override: Optional[int] = None

    # -- flag helpers -----------------------------------------------------
    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def is_pure_syn(self) -> bool:
        return self.flags & HANDSHAKE_FLAGS == SYN

    @property
    def is_synack(self) -> bool:
        return self.flags & HANDSHAKE_FLAGS == SYN_ACK

    # -- sequence space ---------------------------------------------------
    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload bytes plus one for SYN and FIN."""
        length = len(self.payload)
        if self.is_syn:
            length += 1
        if self.is_fin:
            length += 1
        return length

    @property
    def end_seq(self) -> int:
        return (self.seq + self.seg_len) & 0xFFFFFFFF

    def find_option(self, kind: int) -> Optional[TCPOption]:
        for option in self.options:
            if option.kind == kind:
                return option
        return None

    def copy(self, **changes: object) -> "TCPSegment":
        """Return a field-for-field copy with ``changes`` applied.

        Hand-rolled instead of :func:`dataclasses.replace`: copies happen
        once per tap per hop per packet, and ``replace`` re-enters
        ``__init__`` through a kwargs dict — several times slower than
        direct slot assignment.
        """
        duplicate = TCPSegment.__new__(TCPSegment)
        duplicate.src_port = self.src_port
        duplicate.dst_port = self.dst_port
        duplicate.seq = self.seq
        duplicate.ack = self.ack
        duplicate.flags = self.flags
        duplicate.window = self.window
        duplicate.payload = self.payload
        duplicate.options = list(self.options)
        duplicate.urgent = self.urgent
        duplicate.checksum_override = self.checksum_override
        duplicate.data_offset_override = self.data_offset_override
        for name, value in changes.items():
            setattr(duplicate, name, value)
        return duplicate

    def summary(self) -> str:
        text = (
            f"{self.src_port}>{self.dst_port} [{flags_to_str(self.flags)}] "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )
        if self.checksum_override is not None:
            text += " badcsum"
        if self.options:
            kinds = ",".join(str(option.kind) for option in self.options)
            text += f" opts[{kinds}]"
        return text


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram (used by the DNS-over-UDP path the GFW poisons)."""

    src_port: int
    dst_port: int
    payload: bytes = b""
    checksum_override: Optional[int] = None

    def summary(self) -> str:
        return f"{self.src_port}>{self.dst_port} UDP len={len(self.payload)}"


@dataclass(slots=True)
class IPPacket:
    """An IPv4 packet wrapping a TCP segment, UDP datagram, or raw bytes.

    Raw ``bytes`` payloads occur only for IP fragments, where the transport
    header may be split across fragments; the reassembler restores the
    transport object.
    """

    src: str
    dst: str
    payload: Union[TCPSegment, UDPDatagram, bytes]
    ttl: int = 64
    identification: int = 0
    dont_fragment: bool = True
    more_fragments: bool = False
    #: Fragment offset in 8-byte units, as on the wire.
    frag_offset: int = 0
    #: When set, serialized with this (typically oversized) total length.
    total_length_override: Optional[int] = None
    #: Free-form annotations (e.g. ``origin="gfw-type2"``); never on the
    #: wire, used only by trace recorders and measurement classification.
    meta: dict = field(default_factory=dict)

    @property
    def protocol(self) -> int:
        if isinstance(self.payload, TCPSegment):
            return PROTO_TCP
        if isinstance(self.payload, UDPDatagram):
            return PROTO_UDP
        return PROTO_TCP  # raw fragments in this simulator carry TCP

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.frag_offset > 0

    @property
    def tcp(self) -> TCPSegment:
        """The TCP payload; raises if the packet does not carry whole TCP."""
        if not isinstance(self.payload, TCPSegment):
            raise TypeError("packet does not carry a parsed TCP segment")
        return self.payload

    @property
    def udp(self) -> UDPDatagram:
        if not isinstance(self.payload, UDPDatagram):
            raise TypeError("packet does not carry a UDP datagram")
        return self.payload

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.payload, TCPSegment)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.payload, UDPDatagram)

    def flow_key(self) -> Tuple[str, int, str, int]:
        """The directional four-tuple ``(src, sport, dst, dport)``."""
        if isinstance(self.payload, TCPSegment):
            return (self.src, self.payload.src_port, self.dst, self.payload.dst_port)
        if isinstance(self.payload, UDPDatagram):
            return (self.src, self.payload.src_port, self.dst, self.payload.dst_port)
        raise TypeError("raw fragments have no flow key until reassembled")

    def connection_key(self) -> Tuple[Tuple[str, int], Tuple[str, int]]:
        """A direction-agnostic connection key (sorted endpoint pairs)."""
        src, sport, dst, dport = self.flow_key()
        ends = sorted([(src, sport), (dst, dport)])
        return (ends[0], ends[1])

    def copy(self, **changes: object) -> "IPPacket":
        """A deep-enough copy: the TCP payload and meta dict are fresh
        (UDP/raw payloads are shared, matching the historical semantics).
        Hand-rolled for the same hot-path reason as
        :meth:`TCPSegment.copy`."""
        duplicate = IPPacket.__new__(IPPacket)
        duplicate.src = self.src
        duplicate.dst = self.dst
        payload = self.payload
        if isinstance(payload, TCPSegment):
            payload = payload.copy()
        duplicate.payload = payload
        duplicate.ttl = self.ttl
        duplicate.identification = self.identification
        duplicate.dont_fragment = self.dont_fragment
        duplicate.more_fragments = self.more_fragments
        duplicate.frag_offset = self.frag_offset
        duplicate.total_length_override = self.total_length_override
        duplicate.meta = dict(self.meta)
        for name, value in changes.items():
            setattr(duplicate, name, value)
        return duplicate

    def summary(self) -> str:
        if isinstance(self.payload, (TCPSegment, UDPDatagram)):
            body = self.payload.summary()
        else:
            body = f"frag off={self.frag_offset * 8} len={len(self.payload)}"
        extras = "" if not self.is_fragment else " MF" if self.more_fragments else " LF"
        return f"{self.src}->{self.dst} ttl={self.ttl}{extras} {body}"


def segment_shell() -> "TCPSegment":
    """A blank segment built without ``__init__``.

    Forged-reset volleys (``gfw/resets.py``) assign every slot directly,
    which skips ``__init__``'s keyword handling on the dominant packet
    source of a censored trial.  The caller MUST assign every field
    before the shell escapes.
    """
    return TCPSegment.__new__(TCPSegment)


def packet_shell() -> "IPPacket":
    """A blank IP packet built without ``__init__``; same all-fields
    contract as :func:`segment_shell`."""
    return IPPacket.__new__(IPPacket)


def tcp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    flags: int = 0,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
    ttl: int = 64,
    checksum_override: Optional[int] = None,
) -> IPPacket:
    """Convenience constructor for a whole TCP/IPv4 packet."""
    segment = TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        payload=payload,
        checksum_override=checksum_override,
    )
    return IPPacket(src=src, dst=dst, payload=segment, ttl=ttl)


def udp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
) -> IPPacket:
    """Convenience constructor for a whole UDP/IPv4 packet."""
    datagram = UDPDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    return IPPacket(src=src, dst=dst, payload=datagram)


def seq_lt(a: int, b: int) -> bool:
    """Modulo-2**32 sequence comparison: True when ``a`` precedes ``b``.

    >>> seq_lt(1, 2)
    True
    >>> seq_lt(0xFFFFFFF0, 5)  # wrapped
    True
    """
    return ((a - b) & 0xFFFFFFFF) > 0x7FFFFFFF


def seq_lte(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


def seq_add(a: int, delta: int) -> int:
    return (a + delta) & 0xFFFFFFFF


def seq_sub(a: int, b: int) -> int:
    """Signed distance from ``b`` to ``a`` in sequence space."""
    diff = (a - b) & 0xFFFFFFFF
    if diff > 0x7FFFFFFF:
        diff -= 0x100000000
    return diff


def in_window(seq: int, window_start: int, window_size: int) -> bool:
    """RFC 793 window membership with wraparound.

    >>> in_window(105, 100, 10)
    True
    >>> in_window(115, 100, 10)
    False
    """
    offset = (seq - window_start) & 0xFFFFFFFF
    return offset < window_size


# Needed by wire.py for raw fragment payload sizing.
def transport_length(packet: IPPacket) -> int:
    """Length in bytes of the serialized transport payload.

    Computed arithmetically — serializing (and checksumming) the segment
    just to measure it would dominate the fragmenter's cost.
    """
    from repro.netstack.wire import UDP_HEADER_LEN, tcp_wire_length

    if isinstance(packet.payload, TCPSegment):
        return tcp_wire_length(packet.payload)
    if isinstance(packet.payload, UDPDatagram):
        return UDP_HEADER_LEN + len(packet.payload.payload)
    return len(packet.payload)
