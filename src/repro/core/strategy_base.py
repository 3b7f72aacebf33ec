"""Strategy plug-in interface and per-connection context (§6).

"Each evasion strategy dictates specific interception points (i.e., the
types of packets to intercept) and the corresponding actions to take at
each point (e.g., inject an insertion packet).  A new strategy can be
derived … by implementing new logic in the callback functions registered
as interception points.  A strategy can decide on whether to accept or
to drop an intercepted packet, and can also modify the packet.  It can
craft and inject new packets as well."

:class:`EvasionStrategy` is exactly that callback interface;
:class:`ConnectionContext` carries everything a strategy needs to craft
insertion packets: live sequence numbers snooped from both directions,
the TTL estimate for this server, timestamp state, and an RNG.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.netstack.options import KIND_TIMESTAMP
from repro.netstack.packet import (
    ACK,
    IPPacket,
    TCPSegment,
    seq_add,
)
from repro.netsim.simclock import SimClock
from repro.telemetry.recorder import get_recorder
from repro.telemetry.metrics import get_registry


class ConnectionContext:
    """Per-connection state shared by the framework and its strategy."""

    def __init__(
        self,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        clock: SimClock,
        rng: random.Random,
        raw_send: Callable[[IPPacket], None],
        insertion_ttl: int = 10,
    ) -> None:
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.clock = clock
        self.rng = rng
        self.raw_send = raw_send
        #: TTL that reaches the GFW but (we hope) not the server.
        self.insertion_ttl = insertion_ttl
        # -- snooped connection state -------------------------------------
        self.client_isn: Optional[int] = None
        self.server_isn: Optional[int] = None
        self.snd_nxt: int = 0
        self.rcv_nxt: int = 0
        self.saw_syn = False
        self.saw_synack = False
        self.handshake_done = False
        self.request_packets_seen = 0
        self.last_tsval_sent: Optional[int] = None
        #: Insertion packets this connection emitted (for tests/metrics).
        self.insertions_sent: List[IPPacket] = []
        self._recorder = get_recorder()
        self._metric_insertions = get_registry().counter(
            "strategy.insertions_sent"
        )

    # -- observation hooks (called by the framework) -----------------------
    def observe_outgoing(self, packet: IPPacket) -> None:
        segment = packet.tcp
        if segment.is_pure_syn and not self.saw_syn:
            self.saw_syn = True
            self.client_isn = segment.seq
            self.snd_nxt = seq_add(segment.seq, 1)
        elif segment.payload:
            end = seq_add(segment.seq, len(segment.payload))
            if _seq_after(end, self.snd_nxt):
                self.snd_nxt = end
            self.request_packets_seen += 1
        option = segment.find_option(KIND_TIMESTAMP)
        if option is not None:
            self.last_tsval_sent = option.tsval  # type: ignore[union-attr]
        if (
            self.saw_synack
            and not self.handshake_done
            and segment.has_ack
            and not segment.is_syn
        ):
            self.handshake_done = True

    def observe_incoming(self, packet: IPPacket) -> None:
        segment = packet.tcp
        if segment.is_synack and not self.saw_synack:
            self.saw_synack = True
            self.server_isn = segment.seq
            self.rcv_nxt = seq_add(segment.seq, 1)
        elif segment.payload:
            end = seq_add(segment.seq, len(segment.payload))
            if _seq_after(end, self.rcv_nxt):
                self.rcv_nxt = end

    # -- crafting helpers ---------------------------------------------------
    def make_packet(
        self,
        flags: int,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        payload: bytes = b"",
        ttl: int = 64,
    ) -> IPPacket:
        """A packet on this connection's four-tuple with given fields."""
        segment = TCPSegment(
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=self.snd_nxt if seq is None else seq,
            ack=(self.rcv_nxt if ack is None else ack) if flags & ACK else 0,
            flags=flags,
            window=65535,
            payload=payload,
        )
        packet = IPPacket(src=self.src_ip, dst=self.dst_ip, payload=segment, ttl=ttl)
        packet.meta["origin"] = "intang-insertion"
        return packet

    def out_of_window_seq(self, distance: int = 0x40000000) -> int:
        """A sequence number far outside both endpoints' windows."""
        return seq_add(self.snd_nxt, distance)

    def _now(self) -> float:
        """Sim-time for telemetry; unit tests build contexts clockless."""
        return self.clock.now if self.clock is not None else 0.0

    def send_insertion(self, packet: IPPacket, copies: int = 1) -> None:
        """Emit an insertion packet ``copies`` times via the raw path.

        §3.4: "We cope with such dynamics by repeating the sending of the
        insertion packets thrice" — redundancy against packet loss.  Raw
        sends go on the wire *before* any packet the strategy is holding,
        so this is the right call for insertions that must precede the
        intercepted packet (fake SYNs, prefill junk).
        """
        for _ in range(max(1, copies)):
            duplicate = packet.copy()
            self.insertions_sent.append(duplicate)
            self._metric_insertions.inc()
            self.raw_send(duplicate)
        if self._recorder.events_on:
            self._recorder.publish(
                "strategy", "insertion", time=self._now(), mode="raw",
                copies=max(1, copies), summary=packet.summary(),
            )

    def queue_insertion(
        self, released: List[IPPacket], packet: IPPacket, copies: int = 1
    ) -> None:
        """Append insertion copies to a strategy's release list.

        Use this when the insertion must follow the intercepted packet on
        the wire (e.g. a teardown RST that has to trail the handshake
        ACK): packets in the release list are transmitted in order.
        """
        for _ in range(max(1, copies)):
            duplicate = packet.copy()
            self.insertions_sent.append(duplicate)
            self._metric_insertions.inc()
            released.append(duplicate)
        if self._recorder.events_on:
            self._recorder.publish(
                "strategy", "insertion", time=self._now(), mode="queued",
                copies=max(1, copies), summary=packet.summary(),
            )

    def key(self) -> tuple:
        return (self.src_port, self.dst_ip, self.dst_port)


def _seq_after(a: int, b: int) -> bool:
    return ((a - b) & 0xFFFFFFFF) < 0x80000000 and a != b


class EvasionStrategy:
    """Base class for all evasion strategies (the §6 plug-in interface).

    Subclasses override :meth:`on_outgoing` (return the list of packets
    to actually release, in order — returning ``[]`` drops the packet,
    returning extra packets injects them) and optionally
    :meth:`on_incoming` (pure observation; incoming packets cannot be
    dropped by an on-host tool).
    """

    #: Unique identifier used by the selector and the result cache.
    strategy_id: str = "base"
    #: Human-readable summary for reports.
    description: str = ""

    def __init__(self, ctx: ConnectionContext) -> None:
        self.ctx = ctx

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        return [packet]

    def on_incoming(self, packet: IPPacket) -> None:  # pragma: no cover
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.strategy_id}>"


class NoStrategy(EvasionStrategy):
    """The paper's baseline row: packets pass through untouched."""

    strategy_id = "none"
    description = "No evasion; baseline measurement."
