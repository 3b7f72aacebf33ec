"""The improved legacy strategies evaluated in Table 4 (§7.1).

**Improved TCB Teardown**: "We make the TCB Teardown with RST strategy
more robust by integrating within it the sending of a
'desynchronization packet' … right after the RST packet(s) and before
the legitimate HTTP request, to address the case wherein the GFW enters
the 'resynchronization state' due to the RST packets."  The RSTs
themselves ride the middlebox-safe insertion vehicles of Table 5 (MD5
option first, TTL as backup).

**Improved In-order Data Overlapping**: same prefill idea as the §3
strategy, but "using more carefully chosen insertion packets to reduce
potential interference from middleboxes, or because of hitting the
server" — i.e. the junk data packet uses the MD5 option and an old
timestamp rather than a bad checksum or missing flags, which Table 2
shows some client-side middleboxes sanitize.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import IPPacket, RST
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.desync import send_desync_packet
from repro.strategies.insertion import (
    Discrepancy,
    apply_discrepancy,
    junk_payload,
)


class ImprovedTCBTeardown(EvasionStrategy):
    """RST teardown on safe vehicles + desync packet (Table 4 row 1)."""

    strategy_id = "improved-tcb-teardown"

    #: Table 5 lists TTL and MD5 for RSTs; the MD5 vehicle alone already
    #: reaches the GFW on every path and is never middlebox-dropped nor
    #: server-effective (except pre-RFC2385 kernels), so the improved
    #: strategy uses it alone.
    discrepancies = (Discrepancy.MD5_OPTION,)

    def __init__(self, ctx: ConnectionContext, copies: int = 2) -> None:
        super().__init__(ctx)
        self.copies = copies
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        ready = (
            not self._fired
            and self.ctx.saw_synack
            and segment.has_ack
            and not segment.is_syn
            and not segment.is_rst
        )
        if not ready:
            return [packet]
        self._fired = True
        released = [packet]
        for discrepancy in self.discrepancies:
            teardown = self.ctx.make_packet(
                flags=RST, seq=self.ctx.snd_nxt, ack=0
            )
            teardown = apply_discrepancy(teardown, discrepancy, self.ctx)
            self.ctx.queue_insertion(released, teardown, copies=self.copies)
        # The RSTs may have left an evolved device in RESYNC (NB3):
        # poison the re-anchoring before the real request goes out.
        send_desync_packet(self.ctx, released)
        return released


class ImprovedInOrderOverlap(EvasionStrategy):
    """In-order prefill on middlebox-safe vehicles (Table 4 row 2)."""

    strategy_id = "improved-inorder-overlap"
    #: Table 5's middlebox-safe data vehicles, two copies of each.
    discrepancies = (Discrepancy.MD5_OPTION, Discrepancy.OLD_TIMESTAMP)
    copies = 2

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if self._fired or not segment.payload:
            return [packet]
        self._fired = True
        for discrepancy in self.discrepancies:
            junk = self.ctx.make_packet(
                flags=segment.flags,
                seq=segment.seq,
                ack=segment.ack,
                payload=junk_payload(self.ctx, len(segment.payload)),
            )
            junk = apply_discrepancy(junk, discrepancy, self.ctx)
            self.ctx.send_insertion(junk, copies=self.copies)
        return [packet]
