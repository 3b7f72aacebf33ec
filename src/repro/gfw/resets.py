"""Forged reset injection with the two observed signatures (§2.1).

Measured characteristics encoded here:

- **type-1** devices inject a single RST toward each endpoint, with a
  *random* TTL and window size;
- **type-2** devices inject three RST/ACKs toward each endpoint with
  sequence numbers X, X+1460, and X+4380 (X being the current sequence
  point of the opposite side — future offsets so the forgeries stay ahead
  of genuine traffic), with *cyclically increasing* TTL and window, and
  additionally enforce the 90-second blacklist (forged SYN/ACKs for SYNs,
  reset pairs for anything else).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.netstack.packet import (
    ACK,
    IPPacket,
    RST,
    SYN,
    packet_shell,
    segment_shell,
    seq_add,
)


class ResetInjector:
    """Builds forged reset/SYN-ACK packets with per-type signatures."""

    def __init__(self, reset_type: int, rng: random.Random) -> None:
        if reset_type not in (1, 2):
            raise ValueError("GFW reset type must be 1 or 2")
        self.reset_type = reset_type
        self.rng = rng
        # Cyclic counters for the type-2 signature.
        self._cyclic_ttl = 64
        self._cyclic_window = 512
        self._origin = f"gfw-type{reset_type}"

    def _forged(
        self,
        spoof_src: Tuple[str, int],
        toward: Tuple[str, int],
        seq: int,
        ack: int,
        flags: int,
        kind: str,
    ) -> IPPacket:
        """One forged packet with this type's window and TTL signature
        (window drawn first).  Built by direct slot assignment in one
        frame because volleys are the dominant packet source in censored
        trials."""
        if self.reset_type == 1:
            window = self.rng.randint(1, 65535)
            ttl = self.rng.randint(33, 225)
        else:
            window = self._cyclic_window + 79
            if window > 65000:
                window = 512
            self._cyclic_window = window
            ttl = self._cyclic_ttl + 1
            if ttl > 128:
                ttl = 64
            self._cyclic_ttl = ttl
        segment = segment_shell()
        segment.src_port = spoof_src[1]
        segment.dst_port = toward[1]
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.window = window
        segment.payload = b""
        segment.options = []
        segment.urgent = 0
        segment.checksum_override = None
        segment.data_offset_override = None
        packet = packet_shell()
        packet.src = spoof_src[0]
        packet.dst = toward[0]
        packet.payload = segment
        packet.ttl = ttl
        packet.identification = 0
        packet.dont_fragment = True
        packet.more_fragments = False
        packet.frag_offset = 0
        packet.total_length_override = None
        packet.meta = {"origin": self._origin, "forged": kind}
        return packet

    # -- packet builders -----------------------------------------------------
    def forged_resets(
        self,
        spoof_src: Tuple[str, int],
        toward: Tuple[str, int],
        seq_base: int,
        ack_hint: int = 0,
    ) -> List[IPPacket]:
        """Resets spoofed as ``spoof_src``, aimed at ``toward``.

        Type-1 emits one plain RST at ``seq_base``; type-2 emits three
        RST/ACKs at ``seq_base`` + {0, 1460, 4380} (§2.1 footnote: future
        sequence numbers offset the risk of falling behind real traffic).
        """
        if self.reset_type == 1:
            offsets: Tuple[int, ...] = (0,)
            flags = RST
            ack = 0
        else:
            offsets = (0, 1460, 4380)
            flags = RST | ACK
            ack = ack_hint
        return [
            self._forged(
                spoof_src, toward, seq_add(seq_base, offset), ack, flags, "reset"
            )
            for offset in offsets
        ]

    def forged_synack(
        self,
        spoof_src: Tuple[str, int],
        toward: Tuple[str, int],
        acked_seq: int,
    ) -> IPPacket:
        """The wrong-sequence SYN/ACK sent for SYNs during a blacklist.

        Only type-2 devices do this (§2.1).  The sequence number is drawn
        at random so the client's handshake cannot complete correctly.
        """
        return self._forged(
            spoof_src,
            toward,
            self.rng.randrange(0, 2**32),
            seq_add(acked_seq, 1),
            SYN | ACK,
            "synack",
        )
