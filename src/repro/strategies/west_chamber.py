"""The West Chamber Project baseline (§1, §2.2, §9).

"The West Chamber Project is a censorship-circumvention tool that
implemented Ptacek et al.'s theory.  However, it just uses two kinds of
crafted packets to teardown the TCB on the GFW from both directions,
and has now become ineffective."

The 2010 tool's recipe, immediately after the 3-way handshake: two
kinds of crafted FIN teardown packets (FIN and FIN/ACK) that pretend
the connection is closing, each crafted so the real endpoints ignore
them (low TTL here).  FIN-based teardown was the tool's signature move:
against the GFW model of its era it sufficed (prior-assumption 3 says
any of RST/RST-ACK/FIN tears the TCB down) while being the gentlest
packet to forge — a stray FIN cannot reset anything if it leaks.

That very choice is why the tool died: the evolved model simply ignores
FINs (§4, prior-assumption-3 failure), and Table 2 shows several
provider middleboxes eat FIN packets outright.  The paper found none of
its strategies effective (§1); the measurement harness reproduces that
verdict — and shows the recipe still beating a 2010-era censor.
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import ACK, FIN, IPPacket
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import Discrepancy, apply_discrepancy


class WestChamber(EvasionStrategy):
    """FIN-flavoured TCB teardown, as the 2010 tool did."""

    strategy_id = "west-chamber"

    #: Insertion copies of each FIN packet (§3.4: repeated against loss).
    copies = 2

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
        for flags in (FIN, FIN | ACK):
            teardown = self.ctx.make_packet(
                flags=flags, seq=self.ctx.snd_nxt, ack=self.ctx.rcv_nxt
            )
            teardown = apply_discrepancy(teardown, Discrepancy.LOW_TTL, self.ctx)
            self.ctx.queue_insertion(released, teardown, copies=self.copies)
        return released
