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
    TCPSegment,
    packet_shell,
    segment_shell,
    seq_add,
)


class ResetInjector:
    """Builds forged reset/SYN-ACK packets with per-type signatures."""

    def __init__(self, reset_type: int, rng: random.Random, device_name: str) -> None:
        if reset_type not in (1, 2):
            raise ValueError("GFW reset type must be 1 or 2")
        self.reset_type = reset_type
        self.rng = rng
        self.device_name = device_name
        # Cyclic counters for the type-2 signature.
        self._cyclic_ttl = 64
        self._cyclic_window = 512
        self._origin = f"gfw-type{reset_type}"

    def _forged_packet(
        self, src: str, dst: str, segment: TCPSegment, ttl: int, kind: str
    ) -> IPPacket:
        """Wrap a forged segment; built by direct slot assignment because
        volleys are the dominant packet source in censored trials."""
        packet = packet_shell()
        packet.src = src
        packet.dst = dst
        packet.payload = segment
        packet.ttl = ttl
        packet.identification = 0
        packet.dont_fragment = True
        packet.more_fragments = False
        packet.frag_offset = 0
        packet.total_length_override = None
        packet.meta = {"origin": self._origin, "forged": kind}
        return packet

    @staticmethod
    def _forged_segment(
        src_port: int, dst_port: int, seq: int, ack: int, flags: int, window: int
    ) -> TCPSegment:
        segment = segment_shell()
        segment.src_port = src_port
        segment.dst_port = dst_port
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.window = window
        segment.payload = b""
        segment.options = []
        segment.urgent = 0
        segment.checksum_override = None
        segment.data_offset_override = None
        return segment

    # -- signature helpers -------------------------------------------------
    def _next_ttl(self) -> int:
        if self.reset_type == 1:
            return self.rng.randint(33, 225)
        self._cyclic_ttl += 1
        if self._cyclic_ttl > 128:
            self._cyclic_ttl = 64
        return self._cyclic_ttl

    def _next_window(self) -> int:
        if self.reset_type == 1:
            return self.rng.randint(1, 65535)
        self._cyclic_window += 79
        if self._cyclic_window > 65000:
            self._cyclic_window = 512
        return self._cyclic_window

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
        packets: List[IPPacket] = []
        if self.reset_type == 1:
            offsets = (0,)
            flags = RST
            ack = 0
        else:
            offsets = (0, 1460, 4380)
            flags = RST | ACK
            ack = ack_hint
        for offset in offsets:
            segment = self._forged_segment(
                spoof_src[1],
                toward[1],
                seq_add(seq_base, offset),
                ack,
                flags,
                self._next_window(),
            )
            packets.append(
                self._forged_packet(
                    spoof_src[0], toward[0], segment, self._next_ttl(), "reset"
                )
            )
        return packets

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
        segment = self._forged_segment(
            spoof_src[1],
            toward[1],
            self.rng.randrange(0, 2**32),
            seq_add(acked_seq, 1),
            SYN | ACK,
            self._next_window(),
        )
        return self._forged_packet(
            spoof_src[0], toward[0], segment, self._next_ttl(), "synack"
        )
