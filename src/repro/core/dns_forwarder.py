"""The DNS forwarder thread of INTANG (§6).

"It converts each DNS over UDP request to a DNS TCP request and sends it
to an unpolluted, public DNS resolver … We apply the same set of
strategies for the TCP connection that carries DNS requests and
responses … When a DNS TCP response is received, it will be converted
back to a DNS UDP response and processed normally by the application.
So it is completely transparent to applications."

Mechanically: the interception framework hands every outbound UDP packet
to :meth:`_hook`; DNS queries are swallowed (the poisoner never sees
them), re-issued over a TCP connection that itself runs through the
active evasion strategy, and the eventual answer is re-wrapped as a UDP
response *spoofed from the originally queried resolver* and delivered
straight up the local stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netstack.packet import IPPacket, UDPDatagram
from repro.netsim.simclock import SimClock
from repro.core.framework import InterceptionFramework
from repro.tcp.stack import TCPHost

DNS_PORT = 53


class DNSForwarder:
    """UDP→TCP DNS conversion, transparent to the querying application."""

    def __init__(
        self,
        framework: InterceptionFramework,
        tcp_host: TCPHost,
        resolver_ip: str,
        clock: SimClock,
        resolver_port: int = DNS_PORT,
    ) -> None:
        # The host, not the framework: the framework holds our hook, so a
        # reference back to it would close a reference cycle.
        self.host = framework.host
        self.tcp_host = tcp_host
        self.resolver_ip = resolver_ip
        self.resolver_port = resolver_port
        self.clock = clock
        #: qid -> (original resolver ip, client source port)
        self._pending: Dict[int, Tuple[str, int]] = {}
        self.queries_forwarded = 0
        self.responses_returned = 0
        framework.udp_hooks.append(self._hook)

    # ------------------------------------------------------------------
    def _hook(self, packet: IPPacket, now: float) -> Optional[List[IPPacket]]:
        datagram = packet.udp
        if datagram.dst_port != DNS_PORT:
            return None  # not ours; let it pass
        qid = self._query_id(datagram.payload)
        if qid is None:
            return None
        self._pending[qid] = (packet.dst, datagram.src_port)
        self.queries_forwarded += 1
        self._forward_over_tcp(datagram.payload, qid)
        return []  # swallow the UDP query entirely

    def _query_id(self, payload: bytes) -> Optional[int]:
        from repro.apps.dns import parse_message

        try:
            message = parse_message(payload)
        except ValueError:
            return None
        if message.is_response:
            return None
        return message.qid

    def _forward_over_tcp(self, query: bytes, qid: int) -> None:
        connection = self.tcp_host.connect(self.resolver_ip, self.resolver_port)
        buffer = bytearray()

        def on_established(conn) -> None:
            conn.send(len(query).to_bytes(2, "big") + query)

        def on_data(conn, data: bytes) -> None:
            buffer.extend(data)
            while len(buffer) >= 2:
                length = int.from_bytes(buffer[:2], "big")
                if len(buffer) < 2 + length:
                    break
                response = bytes(buffer[2 : 2 + length])
                del buffer[: 2 + length]
                self._return_response(response)
                conn.close()

        connection.on_established = on_established
        connection.on_data = on_data

    def _return_response(self, response: bytes) -> None:
        from repro.apps.dns import parse_message

        try:
            message = parse_message(response)
        except ValueError:
            return
        pending = self._pending.pop(message.qid, None)
        if pending is None:
            return
        original_resolver, client_port = pending
        self.responses_returned += 1
        # Deliver locally, spoofed as the resolver the application asked:
        # transparency means the app never learns the query took a detour.
        reply = IPPacket(
            src=original_resolver,
            dst=self.host.ip,
            payload=UDPDatagram(
                src_port=DNS_PORT, dst_port=client_port, payload=response
            ),
        )
        reply.meta["origin"] = "intang-dns-forwarder"
        self.host.handle_packet(reply, self.clock.now)
