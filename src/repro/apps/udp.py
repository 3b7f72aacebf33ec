"""UDP demultiplexing on a simulated host.

The analogue of :class:`repro.tcp.stack.TCPHost` for datagram traffic;
used by the DNS client/resolver pair and by INTANG's DNS forwarder.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.netstack.packet import IPPacket, UDPDatagram, udp_packet
from repro.netsim.node import Host

#: handler(src_ip, src_port, payload, now)
DatagramHandler = Callable[[str, int, bytes, float], None]


class UDPHost:
    """Port-keyed UDP socket table for one host."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._sockets: Dict[int, DatagramHandler] = {}
        self._ephemeral_port = 40000
        host.register_handler(self._on_packet)

    def bind(self, port: int, handler: DatagramHandler) -> int:
        """Listen on ``port`` (0 allocates an ephemeral port)."""
        if port == 0:
            port = self._ephemeral_port
            self._ephemeral_port += 1
        if port in self._sockets:
            raise ValueError(f"UDP port {port} already bound on {self.host.ip}")
        self._sockets[port] = handler
        return port

    def clear(self) -> None:
        """Unbind every port.  Bound applications hold this socket table,
        which holds their handlers, so a discarded table is only freed by
        reference counting once it is emptied."""
        self._sockets.clear()

    def sendto(
        self, payload: bytes, dst_ip: str, dst_port: int, src_port: int
    ) -> None:
        packet = udp_packet(
            src=self.host.ip,
            dst=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
        )
        self.host.send(packet)

    def _on_packet(self, packet: IPPacket, now: float) -> bool:
        if not packet.is_udp or packet.dst != self.host.ip:
            return False
        datagram: UDPDatagram = packet.udp
        handler = self._sockets.get(datagram.dst_port)
        if handler is None:
            return True  # addressed to us; silently dropped (no ICMP)
        handler(packet.src, datagram.src_port, datagram.payload, now)
        return True
