"""Resync + Desync (§5.2) and the Fig. 3 combination.

**Resync+Desync**: after the 3-way handshake the client sends a SYN
insertion packet — the device has now seen multiple client-side SYNs and
enters the resynchronization state (NB2a) — followed by the
out-of-window desynchronization packet, which the device adopts as its
new anchor.  The real request is out-of-window from its perspective.

The SYN insertion cannot be sent *before* the SYN/ACK arrives: the
device would simply be resynchronized by the SYN/ACK's ACK number (§5.2).
Its sequence number is kept outside the server's receive window (older
Linux would otherwise reset the connection) and it is TTL-limited as a
second line of defence.

**TCB Creation + Resync/Desync** (Fig. 3) adds a fake SYN *before* the
legitimate handshake: that false TCB defeats the old GFW model, while
the second fake SYN + desync packet defeats the evolved model.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import IPPacket, SYN, seq_add
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import Discrepancy, apply_discrepancy
from repro.strategies.desync import send_desync_packet
from repro.strategies.tcb_creation import FAKE_ISN_OFFSET


class ResyncDesync(EvasionStrategy):
    """Post-handshake fake SYN, then the desynchronization packet."""

    strategy_id = "resync-desync"
    #: Insertion copies of each fake SYN (§3.4: repeated against loss).
    copies = 3

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
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
        self._inject_resync_desync(released)
        return released

    def _inject_resync_desync(self, released: List[IPPacket]) -> None:
        fake_syn = self.ctx.make_packet(
            flags=SYN,
            seq=self.ctx.out_of_window_seq(0x30000000),
            ack=0,
        )
        fake_syn = apply_discrepancy(fake_syn, Discrepancy.LOW_TTL, self.ctx)
        self.ctx.queue_insertion(released, fake_syn, copies=self.copies)
        send_desync_packet(self.ctx, released)


class TCBCreationResyncDesync(ResyncDesync):
    """Fig. 3: fake SYN before the handshake + Resync/Desync after it.

    "We will send two SYN insertion packets (both with wrong sequence
    numbers), one before the legitimate 3-way handshake and one after,
    and followed by a desynchronization packet and then the HTTP
    request."
    """

    strategy_id = "tcb-creation+resync-desync"

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
        self._pre_syn_sent = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if segment.is_pure_syn and not self._pre_syn_sent:
            self._pre_syn_sent = True
            fake_syn = self.ctx.make_packet(
                flags=SYN,
                seq=seq_add(segment.seq, FAKE_ISN_OFFSET),
                ack=0,
            )
            fake_syn = apply_discrepancy(fake_syn, Discrepancy.LOW_TTL, self.ctx)
            self.ctx.send_insertion(fake_syn, copies=self.copies)
            return [packet]
        return super().on_outgoing(packet)
