"""Insertion-packet crafting: the discrepancies of Tables 3 and 5.

An *insertion packet* is crafted so the GFW accepts and processes it
while the server ignores or never receives it (§3.2).  Each member of
:class:`Discrepancy` is one ignore-path the §5.3 analysis confirmed;
Table 5 — which discrepancies are usable for which packet type — is
derived from that analysis by ``analysis.discrepancy.derive_table5``:

| Packet type | TTL | MD5 | Bad ACK | Timestamp |
|-------------|-----|-----|---------|-----------|
| SYN         |  ✓  |     |         |           |
| RST         |  ✓  |  ✓  |         |           |
| Data        |  ✓  |  ✓  |    ✓    |     ✓     |

(A SYN can only ride on TTL because servers do not check MD5/ACK fields
before a connection exists in a way the GFW diverges on; RSTs with bad
ACK numbers or old timestamps would still reset an ESTABLISHED server —
§5.3 "effective control packets cannot be crafted with these".)
"""

from __future__ import annotations

import enum

from repro.netstack.options import MD5SignatureOption, TimestampOption
from repro.netstack.packet import ACK, IPPacket, RST, seq_add
from repro.netstack.wire import serialize_tcp, tcp_checksum
from repro.core.strategy_base import ConnectionContext


class Discrepancy(enum.Enum):
    """One server-ignores / GFW-accepts divergence (Table 3)."""

    #: TTL large enough to pass the GFW's hop, too small to reach the server.
    LOW_TTL = "ttl"
    #: Deliberately wrong transport checksum (server validates, GFW not).
    BAD_CHECKSUM = "bad-checksum"
    #: ACK number outside the server's acceptable window (RFC 5961 §5).
    BAD_ACK = "bad-ack"
    #: No TCP flags at all (modern servers require ACK on data).
    NO_FLAG = "no-flag"
    #: Unsolicited RFC 2385 MD5 signature option.
    MD5_OPTION = "md5"
    #: Timestamp older than the peer's ts_recent (PAWS failure).
    OLD_TIMESTAMP = "old-timestamp"
    #: RST/ACK whose ACK number mismatches (ignored in SYN_RECV).
    RST_BAD_ACK = "rst-bad-ack"
    #: TCP header length below 20 bytes.
    SHORT_HEADER = "short-header"
    #: IP total length larger than the actual packet.
    OVERSIZE_IP_LENGTH = "oversize-ip-length"


def apply_discrepancy(
    packet: IPPacket, discrepancy: Discrepancy, ctx: ConnectionContext
) -> IPPacket:
    """Return a copy of ``packet`` carrying the given discrepancy.

    The returned packet is what goes on the wire; the original is not
    modified.  Mutually exclusive discrepancies are not enforced here —
    callers apply exactly one per insertion packet so each failure mode
    stays attributable (§5.3: "each ignore path will lead to a unique
    reason").
    """
    crafted = packet.copy()
    segment = crafted.tcp
    if discrepancy is Discrepancy.LOW_TTL:
        crafted.ttl = ctx.insertion_ttl
    elif discrepancy is Discrepancy.BAD_CHECKSUM:
        correct = tcp_checksum(segment, crafted.src, crafted.dst)
        segment.checksum_override = (correct + 1) & 0xFFFF
    elif discrepancy is Discrepancy.BAD_ACK:
        segment.flags |= ACK
        segment.ack = seq_add(segment.ack or ctx.rcv_nxt, 0x38000000)
    elif discrepancy is Discrepancy.NO_FLAG:
        segment.flags = 0
        segment.ack = 0
    elif discrepancy is Discrepancy.MD5_OPTION:
        segment.options = list(segment.options) + [MD5SignatureOption()]
    elif discrepancy is Discrepancy.OLD_TIMESTAMP:
        old = ((ctx.last_tsval_sent or 1_000_000) - 5_000_000) & 0xFFFFFFFF
        segment.options = [
            option for option in segment.options if not isinstance(option, TimestampOption)
        ] + [TimestampOption(tsval=old, tsecr=0)]
    elif discrepancy is Discrepancy.RST_BAD_ACK:
        segment.flags = RST | ACK
        segment.ack = seq_add(segment.ack or ctx.rcv_nxt, 0x38000000)
    elif discrepancy is Discrepancy.SHORT_HEADER:
        segment.data_offset_override = 4
    elif discrepancy is Discrepancy.OVERSIZE_IP_LENGTH:
        crafted.total_length_override = 20 + _transport_len(crafted) + 64
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown discrepancy {discrepancy}")
    crafted.meta["discrepancy"] = discrepancy.value
    return crafted


def _transport_len(packet: IPPacket) -> int:
    return len(serialize_tcp(packet.tcp, packet.src, packet.dst))


#: The 36 symbols :func:`junk_payload` draws from.
_JUNK_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789"


def junk_payload(ctx: ConnectionContext, length: int) -> bytes:
    """Random printable garbage of ``length`` bytes (never matches rules).

    Byte for byte ``bytes(ctx.rng.choice(_JUNK_ALPHABET) ...)``, leaving
    the stream in the same place: ``choice`` draws ``getrandbits(6)``
    until the value is below 36, and this is that loop inlined.
    ``getrandbits(0)`` consumes nothing; it seeds a
    :class:`~repro.lazyrandom.LazyRandom` up front so the loop calls the
    C method directly.
    """
    rng = ctx.rng
    rng.getrandbits(0)
    getrandbits = rng.getrandbits
    junk = bytearray(length)
    for index in range(length):
        bits = getrandbits(6)
        while bits >= 36:
            bits = getrandbits(6)
        junk[index] = _JUNK_ALPHABET[bits]
    return bytes(junk)
