"""A compact, behaviour-faithful TCP endpoint stack.

This is the "server model" of §5.3: every silent-drop decision ("ignore
path") that the paper's analysis of Linux 4.4 identified is an explicit,
individually testable branch here, and each branch records *why* a packet
was ignored (see :class:`DropReason`) so the ignore-path analysis in
:mod:`repro.analysis` can enumerate them mechanically rather than by
reading kernel source.

The same class implements the client role, so INTANG's interception layer
sees a realistic handshake and data exchange to manipulate.
"""

from __future__ import annotations

import enum
import random
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.netstack.options import (
    KIND_MD5SIG,
    KIND_TIMESTAMP,
    MSSOption,
    TimestampOption,
)
from repro.netstack.packet import (
    ACK,
    FIN,
    IPPacket,
    RST,
    SYN,
    TCPSegment,
    seq_add,
    seq_sub,
)
from repro.netstack.wire import tcp_checksum_valid, wire_lengths
from repro.netsim.node import Host
from repro.netsim.simclock import EventHandle, SimClock
from repro.tcp.profiles import (
    LINUX_4_4,
    RstPolicy,
    StackProfile,
    SynInEstablishedPolicy,
)
from repro.tcp.reassembly import ReceiveBuffer
from repro.tcp.tcb import TCB, TCPState

#: Default maximum segment size, the constant behind the GFW's
#: X+1460 / X+4380 forged reset sequence numbers (§2.1).
DEFAULT_MSS = 1460

#: Retransmission parameters. Values are small because simulated paths
#: have ~80 ms RTTs; the goal is surviving injected loss, not congestion
#: control fidelity.
INITIAL_RTO = 0.25
MAX_RETRIES = 5
TIME_WAIT_DURATION = 1.0


class DropReason(enum.Enum):
    """Why the stack silently ignored a packet (the §5.3 ignore paths)."""

    IP_LENGTH_MISMATCH = "ip-total-length-mismatch"
    BAD_TCP_HEADER_LEN = "tcp-header-length-short"
    BAD_CHECKSUM = "bad-checksum"
    UNSOLICITED_MD5 = "unsolicited-md5-option"
    NO_ACK_FLAG = "data-without-ack-flag"
    BAD_ACK_NUMBER = "unacceptable-ack-number"
    PAWS_OLD_TIMESTAMP = "timestamp-too-old"
    RST_BAD_SEQ = "rst-out-of-window"
    RST_CHALLENGE = "rst-in-window-challenged"
    RST_BAD_ACK_SYNRECV = "rst-ack-mismatch-in-syn-recv"
    SYN_IN_ESTABLISHED = "syn-in-established"
    OUT_OF_WINDOW = "sequence-out-of-window"
    STATE_CLOSED = "connection-closed"
    DUPLICATE_SYN = "duplicate-syn"


class CloseReason(enum.Enum):
    NORMAL = "normal"
    RESET = "reset"
    TIMEOUT = "retransmission-timeout"
    REFUSED = "refused"


class TCPConnection:
    """One endpoint's view of a TCP connection."""

    def __init__(
        self,
        tcp_host: "TCPHost",
        tcb: TCB,
        profile: StackProfile,
        clock: SimClock,
    ) -> None:
        self.host = tcp_host
        self.tcb = tcb
        self.profile = profile
        self.clock = clock
        self.receive_buffer: Optional[ReceiveBuffer] = None
        # Application callbacks.
        self.on_established: Optional[Callable[["TCPConnection"], None]] = None
        self.on_data: Optional[Callable[["TCPConnection", bytes], None]] = None
        self.on_close: Optional[Callable[["TCPConnection", CloseReason], None]] = None
        # Measurement bookkeeping.
        self.received_rsts: List[IPPacket] = []
        self.drop_log: List[Tuple[DropReason, str]] = []
        self.challenge_acks_sent = 0
        self.close_reason: Optional[CloseReason] = None
        self.application_data = bytearray()
        # Retransmission machinery.
        self._unacked: List[Dict[str, object]] = []
        self._rto_handle: Optional[EventHandle] = None
        self._rto = INITIAL_RTO
        self._fin_sent = False
        self._last_tsval_sent = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def state(self) -> TCPState:
        return self.tcb.state

    @property
    def is_established(self) -> bool:
        return self.tcb.state is TCPState.ESTABLISHED

    def send(self, data: bytes, segment_size: int = DEFAULT_MSS) -> None:
        """Queue and transmit application data as one or more segments."""
        if self.tcb.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise RuntimeError(f"cannot send in state {self.tcb.state.value}")
        offset = 0
        while offset < len(data):
            chunk = data[offset : offset + segment_size]
            segment = self._make_segment(ACK, payload=chunk)
            self.tcb.snd_nxt = seq_add(self.tcb.snd_nxt, len(chunk))
            self._queue_for_retransmit(segment)
            self._transmit(segment)
            offset += len(chunk)

    def close(self) -> None:
        """Initiate a graceful close (send FIN)."""
        if self.tcb.state is TCPState.ESTABLISHED:
            self.tcb.state = TCPState.FIN_WAIT_1
        elif self.tcb.state is TCPState.CLOSE_WAIT:
            self.tcb.state = TCPState.LAST_ACK
        else:
            return
        segment = self._make_segment(FIN | ACK)
        self.tcb.snd_nxt = seq_add(self.tcb.snd_nxt, 1)
        self._fin_sent = True
        self._queue_for_retransmit(segment)
        self._transmit(segment)

    def abort(self) -> None:
        """Send a RST and drop to CLOSED immediately."""
        if self.tcb.state not in (TCPState.CLOSED, TCPState.LISTEN):
            segment = self._make_segment(RST | ACK)
            self._transmit(segment, retransmittable=False)
        self._enter_closed(CloseReason.NORMAL)

    def make_packet(
        self,
        flags: int,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        payload: bytes = b"",
        **overrides: object,
    ) -> IPPacket:
        """Craft an arbitrary packet on this connection's four-tuple.

        Evasion strategies use this to build insertion packets that share
        the connection's addressing but carry manipulated fields.  Nothing
        is transmitted and no connection state changes.
        """
        segment = TCPSegment(
            src_port=self.tcb.local_port,
            dst_port=self.tcb.remote_port,
            seq=self.tcb.snd_nxt if seq is None else seq,
            ack=self.tcb.rcv_nxt if ack is None else ack,
            flags=flags,
            window=self.tcb.rcv_wnd,
            payload=payload,
        )
        for name, value in overrides.items():
            setattr(segment, name, value)
        return IPPacket(src=self.tcb.local_ip, dst=self.tcb.remote_ip, payload=segment)

    # ------------------------------------------------------------------
    # Segment transmission internals
    # ------------------------------------------------------------------
    def _make_segment(self, flags: int, payload: bytes = b"") -> TCPSegment:
        options = []
        if self.tcb.timestamps_enabled:
            self._last_tsval_sent = int(self.clock.now * 1000) & 0xFFFFFFFF
            options.append(
                TimestampOption(
                    tsval=self._last_tsval_sent,
                    tsecr=self.tcb.ts_recent or 0,
                )
            )
        return TCPSegment(
            src_port=self.tcb.local_port,
            dst_port=self.tcb.remote_port,
            seq=self.tcb.snd_nxt,
            ack=self.tcb.rcv_nxt if flags & ACK else 0,
            flags=flags,
            window=self.tcb.rcv_wnd,
            payload=payload,
            options=options,
        )

    def _transmit(self, segment: TCPSegment, retransmittable: bool = True) -> None:
        packet = IPPacket(
            src=self.tcb.local_ip, dst=self.tcb.remote_ip, payload=segment.copy()
        )
        self.host.host.send(packet)

    def _queue_for_retransmit(self, segment: TCPSegment) -> None:
        self._unacked.append({"segment": segment.copy(), "retries": 0})
        self._arm_rto()

    def _arm_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
        self._rto_handle = self.clock.schedule(self._rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_handle = None
        if not self._unacked or self.tcb.state is TCPState.CLOSED:
            return
        for entry in self._unacked:
            entry["retries"] = int(entry["retries"]) + 1
            if entry["retries"] > MAX_RETRIES:
                self._enter_closed(CloseReason.TIMEOUT)
                return
        for entry in self._unacked:
            segment: TCPSegment = entry["segment"]  # type: ignore[assignment]
            refreshed = segment.copy()
            if refreshed.flags & ACK:
                refreshed.ack = self.tcb.rcv_nxt
            self._transmit(refreshed, retransmittable=False)
        self._rto = min(self._rto * 2, 4.0)
        self._arm_rto()

    def _handle_ack_advance(self, ack: int) -> None:
        if seq_sub(ack, self.tcb.snd_una) <= 0:
            return
        self.tcb.snd_una = ack
        still_unacked = []
        for entry in self._unacked:
            segment: TCPSegment = entry["segment"]  # type: ignore[assignment]
            if seq_sub(segment.end_seq, ack) > 0:
                still_unacked.append(entry)
        self._unacked = still_unacked
        if self._unacked:
            self._arm_rto()
        elif self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None
            self._rto = INITIAL_RTO

    def _send_ack(self) -> None:
        self._transmit(self._make_segment(ACK), retransmittable=False)

    def _send_challenge_ack(self) -> None:
        self.challenge_acks_sent += 1
        self._send_ack()

    def _send_rst(self, seq: int, with_ack: Optional[int] = None) -> None:
        flags = RST if with_ack is None else RST | ACK
        segment = TCPSegment(
            src_port=self.tcb.local_port,
            dst_port=self.tcb.remote_port,
            seq=seq,
            ack=with_ack or 0,
            flags=flags,
            window=0,
        )
        self._transmit(segment, retransmittable=False)

    def _enter_closed(self, reason: CloseReason) -> None:
        if self.tcb.state is TCPState.CLOSED:
            return
        self.tcb.state = TCPState.CLOSED
        self.close_reason = reason
        self._disarm_rto()
        self._unacked.clear()
        if self.on_close is not None:
            self.on_close(self, reason)

    def _disarm_rto(self) -> None:
        """Cancel the retransmission timer.  Its handle points back at
        this connection, so a connection dropped with the timer armed
        would sit in a reference cycle until the cyclic collector ran."""
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _drop(self, reason: DropReason, detail: str = "") -> None:
        self.drop_log.append((reason, detail))
        self.host.drops.append((self.tcb.four_tuple(), reason))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def segment_arrived(self, packet: IPPacket, now: float) -> None:
        """Full receive-side processing for one delivered packet."""
        segment = packet.tcp
        if self.tcb.state is TCPState.CLOSED:
            if segment.is_rst:
                self.received_rsts.append(packet)
            else:
                self._drop(DropReason.STATE_CLOSED)
            return
        # -- universal ignore paths (any state, any flags) -----------------
        if not self._universal_checks_pass(packet, segment):
            return
        handler = self._STATE_DISPATCH.get(self.tcb.state)
        if handler is not None:
            handler(self, packet, segment, now)

    def _universal_checks_pass(self, packet: IPPacket, segment: TCPSegment) -> bool:
        if packet.total_length_override is not None:
            # Only an explicit override can make emitted != actual.
            emitted, actual = wire_lengths(packet)
            if emitted > actual:
                self._drop(DropReason.IP_LENGTH_MISMATCH, f"{emitted}>{actual}")
                return False
        if segment.data_offset_override is not None and segment.data_offset_override < 5:
            self._drop(DropReason.BAD_TCP_HEADER_LEN)
            return False
        if self.profile.validates_checksum and not tcp_checksum_valid(
            segment, packet.src, packet.dst
        ):
            self._drop(DropReason.BAD_CHECKSUM)
            return False
        if (
            self.profile.drops_unsolicited_md5
            and not self.tcb.md5_negotiated
            and segment.find_option(KIND_MD5SIG) is not None
        ):
            self._drop(DropReason.UNSOLICITED_MD5)
            return False
        return True

    # -- per-state handlers ------------------------------------------------
    def _in_syn_sent(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        if segment.is_rst:
            if segment.has_ack and segment.ack == self.tcb.snd_nxt:
                self.received_rsts.append(packet)
                self._enter_closed(CloseReason.REFUSED)
            else:
                self._drop(DropReason.RST_BAD_SEQ, "syn-sent ack mismatch")
            return
        if segment.is_synack:
            if segment.ack != self.tcb.snd_nxt:
                # RFC 793: bad ack in SYN_SENT elicits a RST (seq = seg.ack).
                self._send_rst(seq=segment.ack)
                return
            self.tcb.irs = segment.seq
            self.tcb.rcv_nxt = seq_add(segment.seq, 1)
            self._handle_ack_advance(segment.ack)
            self.receive_buffer = ReceiveBuffer(
                self.tcb.rcv_nxt, policy=self.profile.ooo_overlap
            )
            option = segment.find_option(KIND_TIMESTAMP)
            if option is not None and self.profile.use_timestamps:
                self.tcb.timestamps_enabled = True
                self.tcb.ts_recent = option.tsval  # type: ignore[union-attr]
            self.tcb.state = TCPState.ESTABLISHED
            self._send_ack()
            if self.on_established is not None:
                self.on_established(self)
            return
        # Anything else in SYN_SENT is ignored.
        self._drop(DropReason.OUT_OF_WINDOW, "non-synack in syn-sent")

    def _in_syn_recv(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        if segment.is_rst:
            # Table 3 row 4: RST/ACK with the wrong ack number is ignored.
            if segment.has_ack and segment.ack != self.tcb.snd_nxt:
                self._drop(DropReason.RST_BAD_ACK_SYNRECV)
                return
            if segment.seq != self.tcb.rcv_nxt:
                self._drop(DropReason.RST_BAD_SEQ)
                return
            self.received_rsts.append(packet)
            self._enter_closed(CloseReason.RESET)
            return
        if segment.is_pure_syn:
            # Retransmitted SYN: re-send our SYN/ACK.
            self._retransmit_synack()
            return
        if not segment.has_ack:
            if self.profile.requires_ack_flag:
                self._drop(DropReason.NO_ACK_FLAG)
                return
        elif segment.ack != self.tcb.snd_nxt:
            # Table 3 row 5: wrong ack number in SYN_RECV -> ignored.
            self._drop(DropReason.BAD_ACK_NUMBER, "syn-recv")
            return
        else:
            self._handle_ack_advance(segment.ack)
        if not self._paws_ok(segment):
            return
        self.tcb.state = TCPState.ESTABLISHED
        if self.on_established is not None:
            self.on_established(self)
        if segment.payload or segment.is_fin:
            self._consume_data(segment, now)

    def _retransmit_synack(self) -> None:
        options = [MSSOption(mss=DEFAULT_MSS)]
        if self.tcb.timestamps_enabled:
            options.append(
                TimestampOption(
                    tsval=int(self.clock.now * 1000) & 0xFFFFFFFF,
                    tsecr=self.tcb.ts_recent or 0,
                )
            )
        segment = TCPSegment(
            src_port=self.tcb.local_port,
            dst_port=self.tcb.remote_port,
            seq=self.tcb.iss,
            ack=self.tcb.rcv_nxt,
            flags=SYN | ACK,
            window=self.tcb.rcv_wnd,
            options=options,
        )
        self._transmit(segment, retransmittable=False)

    def _in_established(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        if segment.is_rst:
            self._process_rst(packet, segment)
            return
        if segment.is_syn:
            self._process_syn_in_established(segment)
            return
        if not segment.has_ack:
            if self.profile.requires_ack_flag:
                self._drop(DropReason.NO_ACK_FLAG)
                return
        elif self.profile.validates_ack_number and not self._ack_acceptable(segment.ack):
            self._drop(DropReason.BAD_ACK_NUMBER)
            return
        if not self._paws_ok(segment):
            return
        if segment.has_ack:
            self._handle_ack_advance(segment.ack)
            self.tcb.snd_wnd = segment.window
            self._maybe_progress_close_states(segment)
        self._consume_data(segment, now)

    def _in_closing_states(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        if segment.is_rst:
            self._process_rst(packet, segment)
            return
        if segment.has_ack:
            self._handle_ack_advance(segment.ack)
            if seq_sub(self.tcb.snd_una, self.tcb.snd_nxt) >= 0:
                if self.tcb.state is TCPState.LAST_ACK:
                    self._enter_closed(CloseReason.NORMAL)
                elif self.tcb.state is TCPState.CLOSING:
                    self._enter_time_wait()

    def _in_time_wait(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        if segment.is_rst:
            self.received_rsts.append(packet)
            self._enter_closed(CloseReason.RESET)
            return
        self._send_ack()

    # -- shared receive helpers --------------------------------------------
    def _process_rst(self, packet: IPPacket, segment: TCPSegment) -> None:
        if self.profile.rst_policy is RstPolicy.EXACT_SEQ:
            if segment.seq == self.tcb.rcv_nxt:
                self.received_rsts.append(packet)
                self._enter_closed(CloseReason.RESET)
            elif self._seq_in_window(segment.seq):
                # RFC 5961 §3: in-window but inexact -> challenge ACK.
                self.drop_log.append((DropReason.RST_CHALLENGE, ""))
                self._send_challenge_ack()
            else:
                self._drop(DropReason.RST_BAD_SEQ)
            return
        if self._seq_in_window(segment.seq):
            self.received_rsts.append(packet)
            self._enter_closed(CloseReason.RESET)
        else:
            self._drop(DropReason.RST_BAD_SEQ)

    def _process_syn_in_established(self, segment: TCPSegment) -> None:
        policy = self.profile.syn_in_established
        if policy is SynInEstablishedPolicy.CHALLENGE_ACK:
            self.drop_log.append((DropReason.SYN_IN_ESTABLISHED, "challenged"))
            self._send_challenge_ack()
        elif policy is SynInEstablishedPolicy.IGNORE:
            self._drop(DropReason.SYN_IN_ESTABLISHED, "ignored")
        else:  # RFC 793 RESET behaviour of old kernels
            if self._seq_in_window(segment.seq):
                self._send_rst(seq=self.tcb.snd_nxt)
                self._enter_closed(CloseReason.RESET)
            else:
                self._drop(DropReason.SYN_IN_ESTABLISHED, "out of window")

    def _ack_acceptable(self, ack: int) -> bool:
        """RFC 5961 §5 acceptable-ACK range check."""
        if seq_sub(ack, self.tcb.snd_nxt) > 0:
            return False  # acking data never sent
        if seq_sub(self.tcb.snd_una, ack) > self.tcb.rcv_wnd:
            return False  # too old
        return True

    def _paws_ok(self, segment: TCPSegment) -> bool:
        if not (self.profile.paws_check and self.tcb.timestamps_enabled):
            return True
        option = segment.find_option(KIND_TIMESTAMP)
        if option is None:
            return True
        tsval = option.tsval  # type: ignore[union-attr]
        if self.tcb.ts_recent is not None and seq_sub(tsval, self.tcb.ts_recent) < 0:
            self._drop(DropReason.PAWS_OLD_TIMESTAMP, f"tsval={tsval}")
            self._send_ack()  # Linux sends a dup-ACK on PAWS failure
            return False
        if segment.seq == self.tcb.rcv_nxt or seq_sub(segment.seq, self.tcb.rcv_nxt) < 0:
            self.tcb.ts_recent = tsval
        return True

    def _seq_in_window(self, seq: int) -> bool:
        offset = seq_sub(seq, self.tcb.rcv_nxt)
        return -1 <= offset < self.tcb.rcv_wnd

    def _consume_data(self, segment: TCPSegment, now: float) -> None:
        if self.receive_buffer is None:
            self.receive_buffer = ReceiveBuffer(
                self.tcb.rcv_nxt, policy=self.profile.ooo_overlap
            )
        if segment.payload:
            offset = seq_sub(segment.seq, self.tcb.rcv_nxt)
            if offset >= self.tcb.rcv_wnd or offset + len(segment.payload) <= 0:
                # Entirely outside the window: duplicate ACK, data ignored.
                self._drop(DropReason.OUT_OF_WINDOW)
                self._send_ack()
                return
            delivered = self.receive_buffer.add(segment.seq, segment.payload)
            self.tcb.rcv_nxt = self.receive_buffer.rcv_nxt
            if delivered:
                self.application_data.extend(delivered)
                if self.on_data is not None:
                    self.on_data(self, delivered)
            self._send_ack()
        if segment.is_fin:
            fin_seq = seq_add(segment.seq, len(segment.payload))
            if fin_seq == self.tcb.rcv_nxt:
                self.tcb.rcv_nxt = seq_add(self.tcb.rcv_nxt, 1)
                if self.receive_buffer is not None:
                    self.receive_buffer.advance(self.tcb.rcv_nxt)
                self._send_ack()
                self._process_fin()

    def _process_fin(self) -> None:
        if self.tcb.state in (TCPState.ESTABLISHED, TCPState.SYN_RECV):
            self.tcb.state = TCPState.CLOSE_WAIT
            if self.on_close is not None:
                self.on_close(self, CloseReason.NORMAL)
        elif self.tcb.state is TCPState.FIN_WAIT_1:
            self.tcb.state = TCPState.CLOSING
        elif self.tcb.state is TCPState.FIN_WAIT_2:
            self._enter_time_wait()

    def _maybe_progress_close_states(self, segment: TCPSegment) -> None:
        if not self._fin_sent:
            return
        fin_acked = seq_sub(self.tcb.snd_una, self.tcb.snd_nxt) >= 0
        if self.tcb.state is TCPState.FIN_WAIT_1 and fin_acked:
            self.tcb.state = TCPState.FIN_WAIT_2
        elif self.tcb.state is TCPState.LAST_ACK and fin_acked:
            self._enter_closed(CloseReason.NORMAL)

    def _enter_time_wait(self) -> None:
        self.tcb.state = TCPState.TIME_WAIT
        self.clock.schedule(
            TIME_WAIT_DURATION, lambda: self._enter_closed(CloseReason.NORMAL)
        )


# Built once: segment_arrived dispatches per packet, so the table must not
# be rebuilt per call (entries are unbound methods, called with self).
TCPConnection._STATE_DISPATCH = {
    TCPState.SYN_SENT: TCPConnection._in_syn_sent,
    TCPState.SYN_RECV: TCPConnection._in_syn_recv,
    TCPState.ESTABLISHED: TCPConnection._in_established,
    TCPState.FIN_WAIT_1: TCPConnection._in_established,
    TCPState.FIN_WAIT_2: TCPConnection._in_established,
    TCPState.CLOSE_WAIT: TCPConnection._in_established,
    TCPState.LAST_ACK: TCPConnection._in_closing_states,
    TCPState.CLOSING: TCPConnection._in_closing_states,
    TCPState.TIME_WAIT: TCPConnection._in_time_wait,
}


class TCPHost:
    """Demultiplexes TCP packets on one :class:`~repro.netsim.node.Host`.

    Owns the listener table, the connection table, and the "stray packet"
    policy: a packet matching no connection elicits a RST (real servers do
    this, and it is exactly why the TCB-reversal SYN/ACK insertion packet
    must be TTL-limited — §5.2).
    """

    def __init__(
        self,
        host: Host,
        clock: SimClock,
        profile: StackProfile = LINUX_4_4,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.clock = clock
        self.profile = profile
        self.rng = rng or random.Random(zlib.crc32(host.ip.encode()))
        self.connections: Dict[Tuple[int, str, int], TCPConnection] = {}
        self.listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self.drops: List[Tuple[Tuple[str, int, str, int], DropReason]] = []
        #: RSTs we emitted for stray packets (visible to tests).
        self.stray_rsts_sent = 0
        self._ephemeral_port = 32768
        host.register_handler(self._on_packet)

    def clear(self) -> None:
        """Drop every connection and listener.

        Connections point back at this stack and listeners at their
        applications, which point back at it too; emptying both tables
        (and disarming the connections' timers) lets a finished trial's
        connections and a discarded topology's stacks be freed by
        reference counting.
        """
        for connection in self.connections.values():
            connection._disarm_rto()
        self.connections.clear()
        self.listeners.clear()

    # -- API ----------------------------------------------------------------
    def listen(
        self, port: int, on_accept: Optional[Callable[[TCPConnection], None]] = None
    ) -> None:
        """Accept connections on ``port``; ``on_accept(conn)`` runs at
        handshake completion."""
        self.listeners[port] = on_accept or (lambda connection: None)

    def connect(
        self,
        dst_ip: str,
        dst_port: int,
        src_port: Optional[int] = None,
    ) -> TCPConnection:
        """Active-open a connection; returns immediately with SYN_SENT."""
        if src_port is None:
            src_port = self._ephemeral_port
            self._ephemeral_port += 1
            if self._ephemeral_port > 60999:
                self._ephemeral_port = 32768
        iss = self.rng.randrange(0, 2**32)
        tcb = TCB(
            local_ip=self.host.ip,
            local_port=src_port,
            remote_ip=dst_ip,
            remote_port=dst_port,
            state=TCPState.SYN_SENT,
            iss=iss,
            snd_una=iss,
            snd_nxt=seq_add(iss, 1),
        )
        connection = TCPConnection(self, tcb, self.profile, self.clock)
        self.connections[(src_port, dst_ip, dst_port)] = connection
        options = [MSSOption(mss=DEFAULT_MSS)]
        if self.profile.use_timestamps:
            tcb.timestamps_enabled = True
            options.append(
                TimestampOption(tsval=int(self.clock.now * 1000) & 0xFFFFFFFF)
            )
        syn = TCPSegment(
            src_port=src_port,
            dst_port=dst_port,
            seq=iss,
            flags=SYN,
            window=tcb.rcv_wnd,
            options=options,
        )
        connection._queue_for_retransmit(syn)
        connection._transmit(syn)
        return connection

    def purge_closed(self) -> int:
        """Drop CLOSED connections from the table; returns how many."""
        closed = [
            key
            for key, connection in self.connections.items()
            if connection.tcb.state is TCPState.CLOSED
        ]
        for key in closed:
            del self.connections[key]
        return len(closed)

    # -- packet entry ---------------------------------------------------------
    def _on_packet(self, packet: IPPacket, now: float) -> bool:
        # Unrolled is_tcp/tcp property pair: this runs for every packet
        # delivered to the host.
        segment = packet.payload
        if segment.__class__ is not TCPSegment or packet.dst != self.host.ip:
            return False
        key = (segment.dst_port, packet.src, segment.src_port)
        connection = self.connections.get(key)
        if connection is not None:
            connection.segment_arrived(packet, now)
            return True
        if segment.dst_port in self.listeners:
            self._listener_packet(packet, segment, now)
            return True
        self._stray_packet(packet, segment)
        return True

    def _listener_packet(
        self, packet: IPPacket, segment: TCPSegment, now: float
    ) -> None:
        if not segment.is_pure_syn:
            self._stray_packet(packet, segment)
            return
        # Universal ignore paths also gate connection creation.
        if not tcp_checksum_valid(segment, packet.src, packet.dst):
            if self.profile.validates_checksum:
                return
        if (
            self.profile.drops_unsolicited_md5
            and segment.find_option(KIND_MD5SIG) is not None
        ):
            return
        emitted, actual = wire_lengths(packet)
        if emitted > actual:
            return
        iss = self.rng.randrange(0, 2**32)
        tcb = TCB(
            local_ip=self.host.ip,
            local_port=segment.dst_port,
            remote_ip=packet.src,
            remote_port=segment.src_port,
            state=TCPState.SYN_RECV,
            iss=iss,
            irs=segment.seq,
            snd_una=iss,
            snd_nxt=seq_add(iss, 1),
            rcv_nxt=seq_add(segment.seq, 1),
        )
        connection = TCPConnection(self, tcb, self.profile, self.clock)
        timestamp = segment.find_option(KIND_TIMESTAMP)
        if timestamp is not None and self.profile.use_timestamps:
            tcb.timestamps_enabled = True
            tcb.ts_recent = timestamp.tsval  # type: ignore[union-attr]
        key = (segment.dst_port, packet.src, segment.src_port)
        self.connections[key] = connection
        on_accept = self.listeners[segment.dst_port]
        connection.on_established = lambda conn: on_accept(conn)
        connection.receive_buffer = ReceiveBuffer(
            tcb.rcv_nxt, policy=self.profile.ooo_overlap
        )
        connection._retransmit_synack()

    def _stray_packet(self, packet: IPPacket, segment: TCPSegment) -> None:
        """RFC 793 reset generation for packets matching no connection."""
        if segment.is_rst or not self.profile.rst_on_stray_packets:
            return
        if not tcp_checksum_valid(segment, packet.src, packet.dst):
            return
        if (
            self.profile.drops_unsolicited_md5
            and segment.find_option(KIND_MD5SIG) is not None
        ):
            return
        self.stray_rsts_sent += 1
        if segment.has_ack:
            reply = TCPSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=segment.ack,
                flags=RST,
                window=0,
            )
        else:
            reply = TCPSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=0,
                ack=seq_add(segment.seq, max(segment.seg_len, 1)),
                flags=RST | ACK,
                window=0,
            )
        self.host.send(
            IPPacket(src=self.host.ip, dst=packet.src, payload=reply)
        )
