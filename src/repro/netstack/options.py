"""TCP options, including the ones the paper uses as insertion discrepancies.

Two options matter especially for the reproduction:

- :class:`MD5SignatureOption` (RFC 2385, kind 19): §5.3 finds that packets
  carrying an *unsolicited* MD5 signature option are ignored by Linux
  servers (≥ 2.6) but accepted by the GFW, and — crucially — are never
  dropped by middleboxes, making them the most robust insertion vehicle.
- :class:`TimestampOption` (RFC 7323, kind 8): a data packet with a
  timestamp older than the peer's last recorded ``TSval`` fails the PAWS
  check and is ignored by the server while the GFW still processes it
  (Table 3 last row).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

KIND_EOL = 0
KIND_NOP = 1
KIND_MSS = 2
KIND_WSCALE = 3
KIND_SACK_PERMITTED = 4
KIND_TIMESTAMP = 8
KIND_MD5SIG = 19


@dataclass(frozen=True)
class TCPOption:
    """Base class for TCP options.

    Concrete options override :meth:`to_bytes`.  Unknown options round-trip
    through :class:`RawOption`.
    """

    kind: int = field(init=False, default=0)

    def to_bytes(self) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True)
class MSSOption(TCPOption):
    """Maximum segment size, negotiated on SYN/SYN-ACK."""

    mss: int = 1460
    kind: int = field(init=False, default=KIND_MSS)

    def to_bytes(self) -> bytes:
        return struct.pack("!BBH", KIND_MSS, 4, self.mss)


@dataclass(frozen=True)
class WindowScaleOption(TCPOption):
    shift: int = 7
    kind: int = field(init=False, default=KIND_WSCALE)

    def to_bytes(self) -> bytes:
        return struct.pack("!BBB", KIND_WSCALE, 3, self.shift)


@dataclass(frozen=True)
class SACKPermittedOption(TCPOption):
    kind: int = field(init=False, default=KIND_SACK_PERMITTED)

    def to_bytes(self) -> bytes:
        return struct.pack("!BB", KIND_SACK_PERMITTED, 2)


@dataclass(frozen=True)
class TimestampOption(TCPOption):
    """RFC 7323 timestamps; ``tsval`` feeds the receiver's PAWS check."""

    tsval: int = 0
    tsecr: int = 0
    kind: int = field(init=False, default=KIND_TIMESTAMP)

    def to_bytes(self) -> bytes:
        return struct.pack("!BBII", KIND_TIMESTAMP, 10, self.tsval, self.tsecr)


def timestamp_option(tsval: int, tsecr: int) -> TimestampOption:
    """``TimestampOption(tsval=tsval, tsecr=tsecr)``, built without the
    frozen dataclass's keyword ``__init__``.

    The stack stamps every data or ACK segment of a timestamping
    connection with one, and the generated ``__init__`` costs about
    twice this.  The instance holds what ``__init__`` would set, in the
    same order; ``kind`` stays the class default.
    """
    option = object.__new__(TimestampOption)
    fields = option.__dict__
    fields["tsval"] = tsval
    fields["tsecr"] = tsecr
    return option


@dataclass(frozen=True)
class MD5SignatureOption(TCPOption):
    """RFC 2385 TCP MD5 signature option (kind 19, length 18).

    The 16-byte digest is opaque here — what matters to the reproduction
    is the *presence* of the option on a connection that never negotiated
    MD5 protection, which makes modern Linux stacks drop the packet on a
    dedicated ignore path (``tcp_v4_inbound_md5_hash``).
    """

    digest: bytes = b"\x00" * 16
    kind: int = field(init=False, default=KIND_MD5SIG)

    def __post_init__(self) -> None:
        if len(self.digest) != 16:
            raise ValueError("MD5 signature digest must be 16 bytes")

    def to_bytes(self) -> bytes:
        return struct.pack("!BB", KIND_MD5SIG, 18) + self.digest


@dataclass(frozen=True)
class RawOption(TCPOption):
    """An option whose kind we do not model; preserved byte-for-byte."""

    raw_kind: int = 253
    data: bytes = b""
    kind: int = field(init=False, default=-1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", self.raw_kind)

    def to_bytes(self) -> bytes:
        return struct.pack("!BB", self.raw_kind, 2 + len(self.data)) + self.data


def serialize_options(options: List[TCPOption]) -> bytes:
    """Serialize options and pad with NOPs to a 4-byte boundary."""
    blob = b"".join(option.to_bytes() for option in options)
    while len(blob) % 4:
        blob += bytes([KIND_NOP])
    return blob


def parse_options(blob: bytes) -> List[TCPOption]:
    """Parse a TCP options blob back into option objects.

    Malformed trailing bytes are silently discarded, mirroring the lenient
    parsing of real stacks (the GFW is even more lenient).
    """
    options: List[TCPOption] = []
    i = 0
    while i < len(blob):
        kind = blob[i]
        if kind == KIND_EOL:
            break
        if kind == KIND_NOP:
            i += 1
            continue
        if i + 1 >= len(blob):
            break
        length = blob[i + 1]
        if length < 2 or i + length > len(blob):
            break
        body = blob[i + 2 : i + length]
        options.append(_parse_one(kind, body))
        i += length
    return options


def _parse_one(kind: int, body: bytes) -> TCPOption:
    if kind == KIND_MSS and len(body) == 2:
        return MSSOption(mss=struct.unpack("!H", body)[0])
    if kind == KIND_WSCALE and len(body) == 1:
        return WindowScaleOption(shift=body[0])
    if kind == KIND_SACK_PERMITTED and not body:
        return SACKPermittedOption()
    if kind == KIND_TIMESTAMP and len(body) == 8:
        tsval, tsecr = struct.unpack("!II", body)
        return TimestampOption(tsval=tsval, tsecr=tsecr)
    if kind == KIND_MD5SIG and len(body) == 16:
        return MD5SignatureOption(digest=body)
    return RawOption(raw_kind=kind, data=body)


def find_option(options: List[TCPOption], kind: int) -> Optional[TCPOption]:
    """Return the first option of ``kind`` in ``options``, or None."""
    for option in options:
        if option.kind == kind:
            return option
    return None
