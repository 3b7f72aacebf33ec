"""TCB creation with a fake SYN (§3.2, Table 1 rows 2-3).

"The client can send a SYN insertion packet with a fake/wrong sequence
number to create a false TCB on the GFW, and then build the real
connection.  The GFW will ignore the real connection because of its
'unexpected' sequence number."

Against the *old* GFW model this works: the false TCB anchors at the
fake ISN and the real request is out-of-window.  Against the *evolved*
model it fails (the paper measured ~89 % Failure 2): the second (real)
SYN pushes the device into the resynchronization state, and the real
SYN/ACK resynchronizes it to the true sequence numbers.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import IPPacket, SYN, seq_add
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import Discrepancy, apply_discrepancy

#: Offset of the fake ISN from the real one: far enough that the real
#: stream is out-of-window for a TCB anchored on the fake SYN, and that
#: the fake SYN is outside the server's expected window if it leaks
#: through (see §5.2's caution about older Linux).
FAKE_ISN_OFFSET = 0x20000000


class TCBCreationWithSYN(EvasionStrategy):
    """Send a wrong-ISN SYN insertion packet before the real SYN."""

    strategy_id = "tcb-creation-syn"
    #: Insertion copies of the fake SYN (§3.4: repeated against loss).
    copies = 3

    def __init__(
        self,
        ctx: ConnectionContext,
        discrepancy: Discrepancy = Discrepancy.LOW_TTL,
    ) -> None:
        super().__init__(ctx)
        if discrepancy not in (Discrepancy.LOW_TTL, Discrepancy.BAD_CHECKSUM):
            raise ValueError("SYN insertion packets support TTL/bad-checksum only")
        self.discrepancy = discrepancy
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if not segment.is_pure_syn or self._fired:
            return [packet]
        self._fired = True
        fake_isn = seq_add(segment.seq, FAKE_ISN_OFFSET)
        fake_syn = self.ctx.make_packet(flags=SYN, seq=fake_isn, ack=0)
        fake_syn = apply_discrepancy(fake_syn, self.discrepancy, self.ctx)
        self.ctx.send_insertion(fake_syn, copies=self.copies)
        return [packet]
