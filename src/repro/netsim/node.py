"""Network endpoints.

An :class:`Endpoint` is anything with an IP address that can receive
packets; :class:`Host` adds protocol-handler dispatch so the TCP stack,
UDP applications, and INTANG's interception layer can be layered on one
machine without the simulator knowing about any of them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.netstack.fragment import FragmentReassembler
from repro.netstack.packet import IPPacket

PacketHandler = Callable[[IPPacket, float], None]
#: An egress filter sees an outbound packet and returns the list of packets
#: actually released to the network (possibly empty, reordered, or with
#: insertion packets added).  This is the simulator's equivalent of the
#: netfilter-queue hook INTANG uses on a real Linux client.
EgressFilter = Callable[[IPPacket, float], List[IPPacket]]


class Endpoint:
    """Minimal endpoint interface used by :class:`~repro.netsim.network.Network`."""

    def __init__(self, ip: str, name: Optional[str] = None) -> None:
        self.ip = ip
        self.name = name or ip
        self.network = None  # set by Network.add_host

    def handle_packet(self, packet: IPPacket, now: float) -> None:
        """Called by the network when a packet is delivered here."""
        raise NotImplementedError

    def send(self, packet: IPPacket) -> None:
        """Put ``packet`` on the wire toward ``packet.dst``."""
        if self.network is None:
            raise RuntimeError(f"host {self.name} is not attached to a network")
        self.network.send(self, packet)


class Host(Endpoint):
    """An endpoint with pluggable protocol handlers and egress filters.

    Handlers registered via :meth:`register_handler` receive every
    delivered (and, when fragmented, reassembled) packet in registration
    order until one claims it by returning True.  They are held as a
    tuple that registration replaces, so a packet is dispatched over the
    handlers registered when it arrived, without a copy per packet: one
    registered during dispatch sees only later packets.  Egress filters wrap
    :meth:`send` and model client-side packet manipulation (INTANG).
    Fragments are reassembled last-wins, as endpoint stacks do (§3.2).
    """

    def __init__(self, ip: str, name: Optional[str] = None) -> None:
        super().__init__(ip, name)
        self._handlers: Tuple[Callable[[IPPacket, float], bool], ...] = ()
        self._egress_filters: List[EgressFilter] = []
        self._reassembler = FragmentReassembler()
        #: Count of packets that arrived but no handler claimed.
        self.unclaimed_packets = 0

    # -- receive ----------------------------------------------------------
    def handle_packet(self, packet: IPPacket, now: float) -> None:
        if packet.more_fragments or packet.frag_offset > 0:
            whole = self._reassembler.add(packet)
            if whole is None:
                return
            packet = whole
        for handler in self._handlers:
            if handler(packet, now):
                return
        self.unclaimed_packets += 1

    def register_handler(
        self, handler: Callable[[IPPacket, float], bool], prepend: bool = False
    ) -> None:
        """Add a packet handler; it returns True when it consumed a packet.

        ``prepend`` puts the handler ahead of existing ones — used by
        INTANG's ingress monitor, which must observe packets before the
        TCP stack claims them (it returns False so processing continues).
        """
        if prepend:
            self._handlers = (handler,) + self._handlers
        else:
            self._handlers = self._handlers + (handler,)

    def clear(self) -> None:
        """Drop handlers and egress filters (scenario teardown).

        The stack, sniffer, and interception layers registered here all
        point back at this host; dropping them lets a finished trial's
        objects be freed by reference counting.
        """
        self._handlers = ()
        self._egress_filters.clear()

    # -- send ---------------------------------------------------------------
    def send(self, packet: IPPacket) -> None:
        """Send through any registered egress filters, then to the wire."""
        if not self._egress_filters:
            super().send(packet)
            return
        now = self.network.clock.now if self.network is not None else 0.0
        packets = [packet]
        for egress_filter in self._egress_filters:
            released: List[IPPacket] = []
            for candidate in packets:
                released.extend(egress_filter(candidate, now))
            packets = released
        for released_packet in packets:
            super().send(released_packet)

    def send_raw(self, packet: IPPacket) -> None:
        """Send bypassing egress filters (a raw socket, as INTANG uses)."""
        super().send(packet)

    def add_egress_filter(self, egress_filter: EgressFilter) -> None:
        self._egress_filters.append(egress_filter)
