"""DNS message codec plus UDP/TCP clients and resolvers.

The GFW censors DNS two ways (§2.1): forged answers for UDP queries and
connection resets for TCP queries.  INTANG's DNS forwarder (§6) converts
UDP queries to TCP so the reset-evasion strategies apply.  The codec here
implements enough of RFC 1035 for those mechanics: a query section, an
A-record answer, and the 2-byte length framing used over TCP.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.netstack.packet import ip_to_int, int_to_ip
from repro.netsim.simclock import SimClock
from repro.apps.udp import UDPHost

QTYPE_A = 1
QCLASS_IN = 1
FLAG_RESPONSE = 0x8000
FLAG_RECURSION_DESIRED = 0x0100


@dataclass
class DNSMessage:
    """A parsed (single-question, A-records-only) DNS message."""

    qid: int
    qname: str
    is_response: bool = False
    answers: List[str] = field(default_factory=list)


def _encode_qname(qname: str) -> bytes:
    encoded = bytearray()
    for label in qname.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not 0 < len(raw) < 64:
            raise ValueError(f"bad DNS label in {qname!r}")
        encoded.append(len(raw))
        encoded.extend(raw)
    encoded.append(0)
    return bytes(encoded)


def _decode_qname(payload: bytes, offset: int) -> Tuple[str, int]:
    labels = []
    while True:
        if offset >= len(payload):
            raise ValueError("truncated DNS name")
        length = payload[offset]
        offset += 1
        if length == 0:
            break
        if length >= 0xC0:
            raise ValueError("compressed names not supported")
        if offset + length > len(payload):
            raise ValueError("truncated DNS label")
        labels.append(payload[offset : offset + length].decode("ascii"))
        offset += length
    return ".".join(labels), offset


def encode_query(qid: int, qname: str) -> bytes:
    """Build a standard recursive A query."""
    header = struct.pack(
        "!HHHHHH", qid & 0xFFFF, FLAG_RECURSION_DESIRED, 1, 0, 0, 0
    )
    return header + _encode_qname(qname) + struct.pack("!HH", QTYPE_A, QCLASS_IN)


def encode_response(qid: int, qname: str, address: str) -> bytes:
    """Build a one-answer A response with a 300 s TTL (also used by the
    GFW's poisoner)."""
    header = struct.pack(
        "!HHHHHH", qid & 0xFFFF, FLAG_RESPONSE | FLAG_RECURSION_DESIRED, 1, 1, 0, 0
    )
    question = _encode_qname(qname) + struct.pack("!HH", QTYPE_A, QCLASS_IN)
    answer = (
        _encode_qname(qname)
        + struct.pack("!HHIH", QTYPE_A, QCLASS_IN, 300, 4)
        + struct.pack("!I", ip_to_int(address))
    )
    return header + question + answer


def parse_message(payload: bytes) -> DNSMessage:
    """Parse a query or response; raises ValueError on malformed input."""
    if len(payload) < 12:
        raise ValueError("truncated DNS header")
    qid, flags, qdcount, ancount, _ns, _ar = struct.unpack("!HHHHHH", payload[:12])
    if qdcount != 1:
        raise ValueError("expected exactly one question")
    qname, offset = _decode_qname(payload, 12)
    offset += 4  # qtype + qclass
    message = DNSMessage(qid=qid, qname=qname, is_response=bool(flags & FLAG_RESPONSE))
    for _ in range(ancount):
        _name, offset = _decode_qname(payload, offset)
        if offset + 10 > len(payload):
            raise ValueError("truncated DNS answer")
        rtype, rclass, _ttl, rdlength = struct.unpack(
            "!HHIH", payload[offset : offset + 10]
        )
        offset += 10
        rdata = payload[offset : offset + rdlength]
        offset += rdlength
        if rtype == QTYPE_A and rclass == QCLASS_IN and rdlength == 4:
            message.answers.append(int_to_ip(struct.unpack("!I", rdata)[0]))
    return message


def extract_query_name(payload: bytes) -> str:
    """Just the question name — the field the GFW's DPI matches on."""
    return parse_message(payload).qname


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------
class DNSUdpResolver:
    """A recursive resolver answering A queries from a zone dict."""

    def __init__(self, udp_host: UDPHost, zone: Dict[str, str], port: int = 53) -> None:
        self.udp = udp_host
        self.zone = {name.lower().rstrip("."): ip for name, ip in zone.items()}
        self.port = port
        udp_host.bind(port, self._on_query)

    def _on_query(self, src_ip: str, src_port: int, payload: bytes, now: float) -> None:
        try:
            message = parse_message(payload)
        except ValueError:
            return
        if message.is_response:
            return
        address = self.zone.get(message.qname.lower().rstrip("."))
        if address is None:
            return
        response = encode_response(message.qid, message.qname, address)
        self.udp.sendto(response, src_ip, src_port, self.port)


class DNSUdpClient:
    """A stub resolver issuing UDP queries and taking the first answer.

    Taking the first answer is deliberate: it is exactly the behaviour
    DNS poisoning exploits (the GFW's forgery beats the real response).
    """

    def __init__(self, udp_host: UDPHost, resolver_ip: str, clock: SimClock) -> None:
        self.udp = udp_host
        self.resolver_ip = resolver_ip
        self.clock = clock
        self._next_qid = 0x1000
        self._pending: Dict[int, Callable[[DNSMessage], None]] = {}
        self.port = udp_host.bind(0, self._on_response)

    def resolve(self, qname: str, on_answer: Callable[[DNSMessage], None]) -> int:
        qid = self._next_qid
        self._next_qid = (self._next_qid + 1) & 0xFFFF
        self._pending[qid] = on_answer
        self.udp.sendto(encode_query(qid, qname), self.resolver_ip, 53, self.port)
        return qid

    def _on_response(
        self, src_ip: str, src_port: int, payload: bytes, now: float
    ) -> None:
        try:
            message = parse_message(payload)
        except ValueError:
            return
        if not message.is_response:
            return
        callback = self._pending.pop(message.qid, None)
        if callback is not None:
            callback(message)


class DNSTcpResolver:
    """A resolver speaking DNS-over-TCP (2-byte length framing)."""

    def __init__(self, tcp_host, zone: Dict[str, str], port: int = 53) -> None:
        self.tcp = tcp_host
        self.zone = {name.lower().rstrip("."): ip for name, ip in zone.items()}
        self.port = port
        tcp_host.listen(port, self._on_accept)

    def _on_accept(self, connection) -> None:
        buffer = bytearray()

        def on_data(conn, data: bytes) -> None:
            buffer.extend(data)
            while len(buffer) >= 2:
                length = int.from_bytes(buffer[:2], "big")
                if len(buffer) < 2 + length:
                    break
                payload = bytes(buffer[2 : 2 + length])
                del buffer[: 2 + length]
                self._answer(conn, payload)

        connection.on_data = on_data

    def _answer(self, connection, payload: bytes) -> None:
        try:
            message = parse_message(payload)
        except ValueError:
            return
        address = self.zone.get(message.qname.lower().rstrip("."))
        if address is None:
            return
        response = encode_response(message.qid, message.qname, address)
        connection.send(len(response).to_bytes(2, "big") + response)
