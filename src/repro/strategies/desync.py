"""The desynchronization building block (§5.1).

"When we expect that the GFW is in the re-synchronization state (this
can be forced), we send an insertion data packet with a sequence number
that is out of window.  Once the GFW synchronizes with the sequence
number in this insertion packet, subsequent legitimate packets of the
connection will be perceived to have sequence numbers that are out of
window, and thus be ignored by the GFW. … Note that the insertion data
packet is ignored by the server since it contains an out-of-window
sequence number."

This is a *function*, not a strategy: the new strategies of §5.2 and the
improved strategies of §7.1 all call it after coercing the GFW into (or
suspecting it might be in) the RESYNC state.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import ACK, IPPacket
from repro.core.strategy_base import ConnectionContext
from repro.strategies.insertion import junk_payload

#: Distance of the desync packet's sequence number from the live stream:
#: far outside any plausible receive window on either side.
DESYNC_SEQ_DISTANCE = 0x40000000


def make_desync_packet(ctx: ConnectionContext) -> IPPacket:
    """Build the out-of-window junk data packet.

    No field discrepancy is needed: the out-of-window sequence number
    alone makes every real server ignore it (with a duplicate ACK),
    while a GFW in RESYNC adopts it wholesale.  That also means no
    middlebox has a reason to drop it — the packet is perfectly
    well-formed.
    """
    packet = ctx.make_packet(
        flags=ACK,
        seq=ctx.out_of_window_seq(DESYNC_SEQ_DISTANCE),
        ack=ctx.rcv_nxt,
        payload=junk_payload(ctx, 1),
    )
    packet.meta["desync"] = True
    return packet


def send_desync_packet(ctx: ConnectionContext, released: List[IPPacket]) -> IPPacket:
    """Queue two copies of the desync packet after ``released``."""
    packet = make_desync_packet(ctx)
    ctx.queue_insertion(released, packet, copies=2)
    return packet
