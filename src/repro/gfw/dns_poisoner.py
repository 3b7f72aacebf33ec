"""UDP DNS poisoning (§2.1).

"For a UDP DNS request with a blacklisted domain, it simply injects a
fake DNS response; for a TCP DNS request, it turns to the connection
reset mechanism."  The TCP side is handled by the normal DPI/reset path;
this component handles the UDP side: it watches client→resolver queries
and injects a spoofed response carrying a bogus address.  Because the
device sits closer to the client than the resolver does, the forgery
almost always wins the race — which is why INTANG converts DNS to TCP
rather than trying to outrun it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.netstack.packet import IPPacket, UDPDatagram
from repro.netsim.path import Direction

#: The bogus addresses observed in poisoned answers rotate through a
#: small pool; one representative is enough for the simulation.
POISONED_ANSWER_IP = "31.13.94.41"

DNS_PORT = 53


class DNSPoisoner:
    """Injects forged UDP DNS answers for blacklisted query names."""

    def __init__(self) -> None:
        self.poisonings: List[Tuple[float, str]] = []

    def handle(self, device, packet: IPPacket, direction: Direction, now: float) -> None:
        """Inspect one observed UDP packet; maybe inject a forged answer."""
        datagram = packet.udp
        if datagram.dst_port != DNS_PORT:
            return
        qname = self._query_name(datagram.payload)
        if qname is None:
            return
        if not device.config.rules.domain_is_poisoned(qname):
            return
        forged = self._forge_response(packet, datagram, qname)
        if forged is None:
            return
        self.poisonings.append((now, qname))
        forged.meta["origin"] = "gfw-dns-poison"
        device.inject((forged,))

    @staticmethod
    def _query_name(payload: bytes) -> Optional[str]:
        from repro.apps.dns import extract_query_name

        try:
            return extract_query_name(payload)
        except ValueError:
            return None

    @staticmethod
    def _forge_response(
        packet: IPPacket, datagram: UDPDatagram, qname: str
    ) -> Optional[IPPacket]:
        from repro.apps.dns import encode_response, parse_message

        try:
            message = parse_message(datagram.payload)
        except ValueError:
            return None
        response_payload = encode_response(
            qid=message.qid, qname=qname, address=POISONED_ANSWER_IP
        )
        reply = UDPDatagram(
            src_port=datagram.dst_port,
            dst_port=datagram.src_port,
            payload=response_payload,
        )
        return IPPacket(src=packet.dst, dst=packet.src, payload=reply, ttl=64)
