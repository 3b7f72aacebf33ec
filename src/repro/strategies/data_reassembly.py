"""Data-reassembly evasion strategies (§3.2, Table 1 rows 4-9).

Two out-of-order variants exploit *overlap preference* divergence:

- IP fragments: the GFW keeps the **first** of two same-offset fragments,
  so garbage is sent first and the real bytes second;
- TCP segments: the old GFW keeps the **latter** of two same-sequence
  out-of-order segments, so the real bytes go first and garbage second
  (endpoint stacks keep the first, i.e. the real data).

The in-order variant ("prefill") instead poisons the GFW's buffer with a
junk segment the server never accepts: once the GFW has consumed bytes
at a sequence position it ignores later data there (first-wins in-order
semantics shared by every implementation), so the real request is
invisible to it.
"""

from __future__ import annotations

from typing import List

from repro.netstack.fragment import make_fragment
from repro.netstack.packet import IPPacket, seq_add
from repro.netstack.wire import transport_bytes
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.insertion import (
    Discrepancy,
    apply_discrepancy,
    junk_payload,
)


class OutOfOrderIPFragments(EvasionStrategy):
    """Garbage-then-real overlapping IP fragments (§3.2 case 1).

    The request packet is withheld and re-emitted as three fragments:

    1. a garbage fragment covering bytes ``[X, end)``  (GFW records it),
    2. the real fragment covering ``[X, end)``          (GFW discards it),
    3. the real fragment covering ``[0, X)``            (fills the gap).

    Endpoints that reassemble last-wins recover the real request; the
    GFW's first-wins reassembly keeps the garbage.  In practice (Table
    2) client-side middleboxes discard or pre-reassemble fragments, which
    is why the paper measured this strategy at a 1.6 % success rate.
    """

    strategy_id = "ooo-ip-fragments"
    #: Shorter payloads are released whole.
    min_payload = 32

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if len(segment.payload) < self.min_payload:
            return [packet]
        # Every payload-bearing copy is fragmented — retransmissions
        # included, since an unfragmented retransmission would hand the
        # whole request to the censor in one piece.
        wire = transport_bytes(packet)
        header_len = len(wire) - len(segment.payload)
        # Split point: the first 8-byte boundary past the transport
        # header, so the garbage fragment covers (nearly) the entire
        # payload — a sensitive keyword anywhere in the request is hidden.
        split = (header_len + 7) // 8 * 8
        if split >= len(wire):
            return [packet]
        ident = self.ctx.rng.randrange(1, 0xFFFF)
        real_head = wire[:split]
        real_tail = wire[split:]
        garbage_tail = junk_payload(self.ctx, len(real_tail))
        frag_garbage = make_fragment(
            packet, garbage_tail, byte_offset=split, more_fragments=False,
            identification=ident,
        )
        frag_real_tail = make_fragment(
            packet, real_tail, byte_offset=split, more_fragments=False,
            identification=ident,
        )
        frag_real_head = make_fragment(
            packet, real_head, byte_offset=0, more_fragments=True,
            identification=ident,
        )
        for fragment in (frag_garbage, frag_real_tail, frag_real_head):
            fragment.meta["origin"] = "intang-fragment"
        return [frag_garbage, frag_real_tail, frag_real_head]


class OutOfOrderTCPSegments(EvasionStrategy):
    """Real-then-garbage overlapping out-of-order TCP segments (§3.2).

    The request is split at ``X``; the tail is sent twice out-of-order —
    real first, garbage second — then the head arrives in order:

    - endpoint stacks queue the *first* version of the tail (real),
    - the old GFW prefers the *latter* (garbage), reassembling a junk
      request.

    The evolved GFW switched to first-wins for queued segments, which is
    why Table 1 shows this strategy succeeding only ~31 % of the time.
    """

    strategy_id = "ooo-tcp-segments"
    #: Shorter payloads are released whole.
    min_payload = 32

    def __init__(self, ctx: ConnectionContext) -> None:
        super().__init__(ctx)
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if self._fired or len(segment.payload) < self.min_payload:
            return [packet]
        self._fired = True
        # Keep the head gap tiny (the HTTP method verb) so the garbage
        # tail covers the keyword wherever it sits in the request; the
        # gap is what keeps the duplicated tail *out of order*.
        split = min(4, len(segment.payload) // 2)
        head = segment.payload[:split]
        tail = segment.payload[split:]
        tail_seq = seq_add(segment.seq, split)
        real_tail = packet.copy()
        real_tail.tcp.seq = tail_seq
        real_tail.tcp.payload = tail
        garbage_tail = packet.copy()
        garbage_tail.tcp.seq = tail_seq
        garbage_tail.tcp.payload = junk_payload(self.ctx, len(tail))
        garbage_tail.meta["origin"] = "intang-insertion"
        head_packet = packet.copy()
        head_packet.tcp.payload = head
        return [real_tail, garbage_tail, head_packet]


class InOrderDataOverlap(EvasionStrategy):
    """Prefill the GFW's buffer with in-order junk (§3.2 case 2).

    Before the real request is released, an insertion packet with the
    *same sequence range* but junk payload is sent, carrying a
    discrepancy (low TTL, bad checksum, bad ACK, no flags, MD5, old
    timestamp) so the server drops it while the GFW consumes it.  Both
    the GFW and the server keep the first in-order data at a given
    sequence position, so the GFW permanently records junk.
    """

    strategy_id = "inorder-overlap"
    #: Insertion copies of the junk packet (§3.4: repeated against loss).
    copies = 2

    def __init__(
        self,
        ctx: ConnectionContext,
        discrepancy: Discrepancy = Discrepancy.LOW_TTL,
    ) -> None:
        super().__init__(ctx)
        self.discrepancy = discrepancy
        self._fired = False

    def on_outgoing(self, packet: IPPacket) -> List[IPPacket]:
        segment = packet.tcp
        if self._fired or not segment.payload:
            return [packet]
        self._fired = True
        junk = self.ctx.make_packet(
            flags=segment.flags,
            seq=segment.seq,
            ack=segment.ack,
            payload=junk_payload(self.ctx, len(segment.payload)),
        )
        junk = apply_discrepancy(junk, self.discrepancy, self.ctx)
        self.ctx.send_insertion(junk, copies=self.copies)
        return [packet]
