"""Concrete in-path middlebox implementations.

Three families cover everything Table 2 and §3.4 describe:

- :class:`FragmentHandlingBox` — passes, discards, or *reassembles* IP
  fragments.  Reassembly is the insidious case: the garbage/real overlap
  trick is resolved *before* the GFW sees the traffic, re-exposing the
  original request (§3.4: "these packets were deterministically captured
  by the GFW");
- :class:`FieldSanitizerBox` — drops packets with wrong TCP checksums, no
  TCP flags, FIN, or RST, each with its own (possibly probabilistic,
  "sometimes dropped") policy;
- :class:`StatefulFirewallBox` — a NAT-style connection tracker that
  *accepts* insertion packets: a spoofed RST tears down its entry and
  every subsequent legitimate packet is dropped ("Failure 1", §3.4).
"""

from __future__ import annotations

import enum
import random
import zlib
from typing import Dict, Optional, Tuple

from repro.netstack.fragment import FragmentReassembler, OverlapPolicy
from repro.netstack.options import KIND_MD5SIG
from repro.netstack.packet import FIN, IPPacket, RST, TCPSegment, seq_add, seq_sub
from repro.netstack.wire import tcp_checksum_valid
from repro.netsim.path import Direction, InlineBox, ProcessResult


class FragmentMode(enum.Enum):
    PASS = "pass"
    DISCARD = "discard"
    REASSEMBLE = "reassemble"


class FragmentHandlingBox(InlineBox):
    """Implements the "IP fragments" row of Table 2."""

    def __init__(
        self,
        name: str,
        hop: int,
        mode: FragmentMode = FragmentMode.PASS,
        reassembly_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS,
    ) -> None:
        super().__init__(name, hop)
        self.mode = mode
        self.reassembly_policy = reassembly_policy
        self._reassembler = FragmentReassembler(policy=reassembly_policy)
        self.fragments_discarded = 0
        self.packets_reassembled = 0

    def process(
        self, packet: IPPacket, direction: Direction, now: float
    ) -> ProcessResult:
        if not packet.is_fragment or self.mode is FragmentMode.PASS:
            return ProcessResult.forward()
        if self.mode is FragmentMode.DISCARD:
            self.fragments_discarded += 1
            return ProcessResult.drop()
        whole = self._reassembler.add(packet)
        if whole is None:
            return ProcessResult.drop()  # buffered, nothing forwarded yet
        self.packets_reassembled += 1
        return ProcessResult.replace([whole])

    def reset_state(self) -> None:
        self._reassembler = FragmentReassembler(policy=self.reassembly_policy)


class FieldSanitizerBox(InlineBox):
    """Drops packets whose headers look anomalous (Table 2 rows 2-5).

    Each drop probability may be 0.0 (pass), 1.0 (always dropped), or in
    between ("sometimes dropped", as measured for Aliyun FINs and QCloud
    RSTs).
    """

    def __init__(
        self,
        name: str,
        hop: int,
        drop_bad_checksum: float = 0.0,
        drop_no_flag: float = 0.0,
        drop_fin: float = 0.0,
        drop_rst: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(name, hop)
        self.drop_bad_checksum = drop_bad_checksum
        self.drop_no_flag = drop_no_flag
        self.drop_fin = drop_fin
        self.drop_rst = drop_rst
        self.rng = rng or random.Random(zlib.crc32(name.encode()))
        self.dropped: Dict[str, int] = {}

    def _roll(self, probability: float, label: str) -> bool:
        if probability <= 0.0:
            return False
        if probability >= 1.0 or self.rng.random() < probability:
            self.dropped[label] = self.dropped.get(label, 0) + 1
            return True
        return False

    def process(
        self, packet: IPPacket, direction: Direction, now: float
    ) -> ProcessResult:
        segment = packet.payload
        if segment.__class__ is not TCPSegment:
            return ProcessResult.forward()
        if not tcp_checksum_valid(segment, packet.src, packet.dst):
            if self._roll(self.drop_bad_checksum, "bad-checksum"):
                return ProcessResult.drop()
        # §5.3: "insertion packets leveraging the unsolicited MD5 header
        # … are never dropped by the middleboxes we encounter" — the
        # option changes how the sanitizers classify the packet.
        if segment.options and segment.find_option(KIND_MD5SIG) is not None:
            return ProcessResult.forward()
        flags = segment.flags
        if flags == 0 and self._roll(self.drop_no_flag, "no-flag"):
            return ProcessResult.drop()
        if flags & FIN and self._roll(self.drop_fin, "fin"):
            return ProcessResult.drop()
        if flags & RST and self._roll(self.drop_rst, "rst"):
            return ProcessResult.drop()
        return ProcessResult.forward()


class _FirewallEntry:
    __slots__ = (
        "client_ip",
        "client_next",
        "server_next",
        "server_seq_known",
        "torn_down",
    )

    def __init__(self, client_ip: str, client_next: int) -> None:
        self.client_ip = client_ip
        self.client_next = client_next
        self.server_next = 0
        self.server_seq_known = False
        self.torn_down = False


class StatefulFirewallBox(InlineBox):
    """A connection-tracking firewall that insertion packets can poison.

    The failure mode of §3.4: the box accepts a spoofed RST/FIN as
    genuine, marks the connection dead, and then drops all later packets
    of the real connection.  Optionally it also checks sequence windows,
    so a desync packet can shift its expectations.
    """

    def __init__(
        self,
        name: str,
        hop: int,
        teardown_on_rst: bool = True,
        teardown_on_fin: bool = True,
        check_sequences: bool = False,
        seq_window: int = 65535,
        teardown_probability: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(name, hop)
        self.teardown_on_rst = teardown_on_rst
        self.teardown_on_fin = teardown_on_fin
        self.check_sequences = check_sequences
        self.seq_window = seq_window
        #: Probability a matching RST/FIN actually poisons the entry —
        #: some boxes only "sometimes" adopt forged control packets.
        self.teardown_probability = teardown_probability
        self.rng = rng or random.Random(zlib.crc32(name.encode()))
        self._entries: Dict[Tuple, _FirewallEntry] = {}
        self.packets_blocked = 0
        self.teardowns = 0

    @staticmethod
    def _key(packet: IPPacket, segment: TCPSegment) -> Tuple:
        ends = sorted(
            [(packet.src, segment.src_port), (packet.dst, segment.dst_port)]
        )
        return (ends[0], ends[1])

    def process(
        self, packet: IPPacket, direction: Direction, now: float
    ) -> ProcessResult:
        if not packet.is_tcp:
            return ProcessResult.forward()
        segment = packet.tcp
        key = self._key(packet, segment)
        entry = self._entries.get(key)
        if entry is None:
            if segment.is_pure_syn:
                self._entries[key] = _FirewallEntry(
                    packet.src, seq_add(segment.seq, 1)
                )
            return ProcessResult.forward()
        if entry.torn_down:
            if segment.is_rst:
                return ProcessResult.forward()  # let resets through
            self.packets_blocked += 1
            return ProcessResult.drop()
        if segment.is_synack and not entry.server_seq_known:
            entry.server_next = seq_add(segment.seq, 1)
            entry.server_seq_known = True
        if segment.is_rst and self.teardown_on_rst and self._teardown_roll():
            entry.torn_down = True
            self.teardowns += 1
            return ProcessResult.forward()
        if segment.is_fin and self.teardown_on_fin and self._teardown_roll():
            entry.torn_down = True
            self.teardowns += 1
            return ProcessResult.forward()
        if self.check_sequences and segment.payload:
            from_client = packet.src == entry.client_ip
            expected = entry.client_next if from_client else entry.server_next
            if not from_client and not entry.server_seq_known:
                return ProcessResult.forward()
            offset = seq_sub(segment.seq, expected)
            if not -self.seq_window < offset < self.seq_window:
                self.packets_blocked += 1
                return ProcessResult.drop()
            end = seq_add(segment.seq, len(segment.payload))
            if seq_sub(end, expected) > 0:
                if from_client:
                    entry.client_next = end
                else:
                    entry.server_next = end
        return ProcessResult.forward()

    def _teardown_roll(self) -> bool:
        if self.teardown_probability >= 1.0:
            return True
        return self.rng.random() < self.teardown_probability

    def reset_state(self) -> None:
        self._entries.clear()
