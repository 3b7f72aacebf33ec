"""TCB teardown with forged RST / RST-ACK / FIN (§3.2, Table 1 rows 10-15).

After the real handshake completes, the client sends a teardown insertion
packet: the GFW (liberal about checksums, MD5 options, and sequence
details) deletes its TCB, while the server never sees — or ignores — the
forgery.  Subsequent data flows with no shadow TCB to match it.

Measured reality (§3.4/§4): FIN no longer tears the evolved GFW down at
all, and RST/RST-ACK sometimes push it into the resynchronization state
instead (NB3), which re-anchors on the real request — the ~24 % Failure
2 rate of Table 1.  The improved variant appends a desynchronization
packet to poison that re-anchoring (see
:class:`repro.strategies.improved.ImprovedTCBTeardown`).
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import ACK, FIN, IPPacket, RST
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import Discrepancy, apply_discrepancy


class TCBTeardown(EvasionStrategy):
    """Insert a teardown control packet right after the handshake."""

    strategy_id = "tcb-teardown"
    #: Insertion copies per teardown packet (§3.4: repeated against loss).
    copies = 3

    def __init__(
        self,
        ctx: ConnectionContext,
        teardown_flags: int = RST,
        discrepancy: Discrepancy = Discrepancy.LOW_TTL,
    ) -> None:
        super().__init__(ctx)
        if teardown_flags not in (RST, RST | ACK, FIN, FIN | ACK):
            raise ValueError("teardown packet must be RST, RST/ACK, or FIN")
        self.teardown_flags = teardown_flags
        self.discrepancy = discrepancy
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
        teardown = self.ctx.make_packet(
            flags=self.teardown_flags,
            seq=self.ctx.snd_nxt,
            ack=self.ctx.rcv_nxt,
        )
        teardown = apply_discrepancy(teardown, self.discrepancy, self.ctx)
        # Release the handshake ACK first so the GFW sees the connection
        # complete, then the teardown, then (later) the request.
        released = [packet]
        self.ctx.queue_insertion(released, teardown, copies=self.copies)
        return released
