"""TCB Reversal (§5.2) and the Fig. 4 combination.

**TCB Reversal**: before the real handshake the client sends a SYN/ACK
insertion packet.  An evolved GFW device — which creates TCBs from bare
SYN/ACKs assuming their *source* is the server (NB1) — builds a TCB
whose monitored direction points at the real server's responses.  Since
HTTP-response censorship is discontinued, the actual request sails by
uninspected.  The insertion SYN/ACK must be TTL-limited: if it reached
the server, the server's RST-to-stray-packet reply would tear the
reversed TCB straight back down.

**TCB Teardown + TCB Reversal** (Fig. 4): the reversal only fools the
evolved model, so a classic RST teardown after the handshake is added to
delete the *old* model's (correctly oriented) TCB.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import ACK, IPPacket, RST, SYN
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import Discrepancy, apply_discrepancy


class TCBReversal(EvasionStrategy):
    """Send a fake SYN/ACK before the real SYN to reverse the GFW's TCB."""

    strategy_id = "tcb-reversal"
    #: Insertion copies of the fake SYN/ACK (§3.4: repeated against loss).
    copies = 3

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if not segment.is_pure_syn or self._fired:
            return [packet]
        self._fired = True
        fake_synack = self.ctx.make_packet(
            flags=SYN | ACK,
            seq=self.ctx.rng.randrange(0, 2**32),
            ack=self.ctx.rng.randrange(0, 2**32),
        )
        fake_synack = apply_discrepancy(fake_synack, Discrepancy.LOW_TTL, self.ctx)
        self.ctx.send_insertion(fake_synack, copies=self.copies)
        return [packet]


class TeardownReversal(TCBReversal):
    """Fig. 4: TCB Reversal for the evolved model + RST teardown for the old.

    "We first send a fake SYN/ACK packet from the client to the server to
    create a false TCB on the evolved GFW device.  Next, we establish the
    legitimate 3-way handshake … Then we send a RST insertion packet to
    teardown the TCB on the old GFW model, followed by the HTTP request."
    """

    strategy_id = "tcb-teardown+tcb-reversal"

    #: Table 5's middlebox-safe RST vehicle; one copy each.
    rst_discrepancies = (Discrepancy.MD5_OPTION,)

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
        self._teardown_fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        released = super().on_outgoing(packet)
        segment = packet.tcp
        ready = (
            not self._teardown_fired
            and self.ctx.saw_synack
            and segment.has_ack
            and not segment.is_syn
            and not segment.is_rst
        )
        if not ready:
            return released
        self._teardown_fired = True
        for discrepancy in self.rst_discrepancies:
            teardown = self.ctx.make_packet(
                flags=RST, seq=self.ctx.snd_nxt, ack=0
            )
            teardown = apply_discrepancy(teardown, discrepancy, self.ctx)
            self.ctx.queue_insertion(released, teardown, copies=1)
        return released
