"""Server-side ignore-path enumeration (§5.3, server half of Table 3).

A :class:`ServerHarness` drives a live server stack into a chosen TCP
state with hand-crafted packets (no client stack in the way), snapshots
the connection's TCB, fires one probe packet, and classifies the result:

- ``IGNORED`` — the TCB is unchanged and the stack logged a silent-drop
  reason (possibly an ACK was emitted, like the PAWS duplicate ACK —
  still an ignore path per the paper's definition);
- ``ACCEPTED`` — the TCB moved (sequence numbers advanced, state
  changed, or the connection died).

Each :class:`IgnoreProbe` corresponds to one Table 3 condition; probes
are parameterized by target state so SYN_RECV/ESTABLISHED rows run in
both states.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netstack.options import MD5SignatureOption, MSSOption, TimestampOption
from repro.netstack.packet import (
    ACK,
    FIN,
    IPPacket,
    RST,
    SYN,
    TCPSegment,
    seq_add,
)
from repro.netsim.network import Network, Path
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.tcp.profiles import LINUX_4_4, StackProfile
from repro.tcp.stack import TCPConnection, TCPHost
from repro.tcp.tcb import TCPState

CLIENT_IP = "10.9.0.2"
SERVER_IP = "198.51.100.80"
CLIENT_PORT = 45000
SERVER_PORT = 80


class IgnoreVerdict(enum.Enum):
    IGNORED = "ignored"
    ACCEPTED = "accepted"
    NOT_APPLICABLE = "n/a"


@dataclass
class _ConnSnapshot:
    state: TCPState
    rcv_nxt: int
    snd_nxt: int
    delivered: int

    @classmethod
    def of(cls, connection: TCPConnection) -> "_ConnSnapshot":
        return cls(
            state=connection.tcb.state,
            rcv_nxt=connection.tcb.rcv_nxt,
            snd_nxt=connection.tcb.snd_nxt,
            delivered=len(connection.application_data),
        )

    def unchanged(self, connection: TCPConnection) -> bool:
        after = _ConnSnapshot.of(connection)
        return (
            after.state == self.state
            and after.rcv_nxt == self.rcv_nxt
            and after.delivered == self.delivered
        )


class ServerHarness:
    """A controlled server reachable over a clean two-hop path."""

    def __init__(self, profile: StackProfile = LINUX_4_4, seed: int = 99) -> None:
        self.profile = profile
        self.clock = SimClock()
        self.network = Network(clock=self.clock, rng=random.Random(seed))
        self.client = self.network.add_host(Host(CLIENT_IP, "probe-client"))
        self.server = self.network.add_host(Host(SERVER_IP, "probe-server"))
        self.path = Path(CLIENT_IP, SERVER_IP, hop_count=4, base_delay=0.004)
        self.network.add_path(self.path)
        self.server_tcp = TCPHost(
            self.server, self.clock, profile=profile, rng=random.Random(seed + 1)
        )
        self.server_tcp.listen(SERVER_PORT)
        self.rng = random.Random(seed + 2)
        self.client_isn = self.rng.randrange(2**32)
        self.server_synack: Optional[TCPSegment] = None
        self._synacks_seen: List[TCPSegment] = []
        self.client.register_handler(self._capture, prepend=True)
        #: The client's view of its own timestamp clock, for PAWS probes.
        self.client_tsval = 1_000_000

    # ------------------------------------------------------------------
    def _capture(self, packet: IPPacket, now: float) -> bool:
        if packet.is_tcp and packet.tcp.is_synack:
            self._synacks_seen.append(packet.tcp)
            self.server_synack = packet.tcp
        return False

    def _send(self, segment: TCPSegment, **packet_fields: object) -> None:
        packet = IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)
        for name, value in packet_fields.items():
            setattr(packet, name, value)
        self.client.send(packet)
        self.clock.run_for(0.05)

    def _segment(
        self,
        flags: int,
        seq: int,
        ack: int = 0,
        payload: bytes = b"",
        options: Optional[list] = None,
    ) -> TCPSegment:
        return TCPSegment(
            src_port=CLIENT_PORT,
            dst_port=SERVER_PORT,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=payload,
            options=list(options or []),
        )

    # -- state drivers -----------------------------------------------------
    def drive_to(self, state: TCPState) -> TCPConnection:
        """Bring the server connection to LISTEN/SYN_RECV/ESTABLISHED."""
        if state is TCPState.LISTEN:
            raise ValueError("LISTEN has no per-connection TCB to snapshot")
        options = [MSSOption()]
        if self.profile.use_timestamps:
            options.append(TimestampOption(tsval=self.client_tsval))
        self._send(self._segment(SYN, seq=self.client_isn, options=options))
        connection = self._connection()
        if connection is None or self.server_synack is None:
            raise RuntimeError("server did not enter SYN_RECV")
        if state is TCPState.SYN_RECV:
            return connection
        ack_options = []
        if self.profile.use_timestamps:
            self.client_tsval += 10
            ack_options.append(
                TimestampOption(
                    tsval=self.client_tsval, tsecr=self._server_tsval()
                )
            )
        self._send(
            self._segment(
                ACK,
                seq=seq_add(self.client_isn, 1),
                ack=seq_add(self.server_synack.seq, 1),
                options=ack_options,
            )
        )
        connection = self._connection()
        if connection is None or connection.tcb.state is not TCPState.ESTABLISHED:
            raise RuntimeError("server did not reach ESTABLISHED")
        return connection

    def _server_tsval(self) -> int:
        if self.server_synack is None:
            return 0
        option = self.server_synack.find_option(8)
        return option.tsval if option is not None else 0  # type: ignore[union-attr]

    def _connection(self) -> Optional[TCPConnection]:
        return self.server_tcp.connections.get(
            (SERVER_PORT, CLIENT_IP, CLIENT_PORT)
        )

    # -- probe execution -----------------------------------------------------
    def fire(self, probe_packet: IPPacket) -> None:
        self.client.send(probe_packet)
        self.clock.run_for(0.05)

    def snd_nxt(self) -> int:
        """Client-side next sequence number after the handshake."""
        return seq_add(self.client_isn, 1)

    def rcv_nxt(self) -> int:
        """Client-side next expected server sequence."""
        if self.server_synack is None:
            return 0
        return seq_add(self.server_synack.seq, 1)


#: A probe builder receives the harness and returns the probe packet.
ProbeBuilder = Callable[[ServerHarness], IPPacket]


@dataclass(frozen=True)
class IgnoreProbe:
    """One candidate-insertion-packet test (one Table 3 condition)."""

    name: str
    condition: str
    flags_label: str
    #: TCP states the probe applies to.
    states: Tuple[TCPState, ...]
    build: ProbeBuilder = field(compare=False)
    #: Whether the probe needs timestamps negotiated (PAWS row).
    requires_timestamps: bool = False


def _data(harness: ServerHarness, **kw) -> TCPSegment:
    return harness._segment(
        kw.pop("flags", ACK),
        seq=kw.pop("seq", harness.snd_nxt()),
        ack=kw.pop("ack", harness.rcv_nxt()),
        payload=kw.pop("payload", b"PROBEDATA"),
        options=kw.pop("options", None),
    )


def _packet(harness: ServerHarness, segment: TCPSegment, **fields) -> IPPacket:
    packet = IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)
    for name, value in fields.items():
        setattr(packet, name, value)
    return packet


def _oversize_ip(harness: ServerHarness) -> IPPacket:
    packet = _packet(harness, _data(harness))
    packet.total_length_override = 2000
    return packet


def _short_header(harness: ServerHarness) -> IPPacket:
    segment = _data(harness)
    segment.data_offset_override = 4
    return _packet(harness, segment)


def _bad_checksum(harness: ServerHarness) -> IPPacket:
    segment = _data(harness)
    segment.checksum_override = 0x0001
    return _packet(harness, segment)


def _rstack_bad_ack(harness: ServerHarness) -> IPPacket:
    segment = harness._segment(
        RST | ACK,
        seq=harness.snd_nxt(),
        ack=seq_add(harness.rcv_nxt(), 0x2000000),
    )
    return _packet(harness, segment)


def _ack_bad_ack(harness: ServerHarness) -> IPPacket:
    segment = _data(harness, ack=seq_add(harness.rcv_nxt(), 0x2000000))
    return _packet(harness, segment)


def _md5_option(harness: ServerHarness) -> IPPacket:
    segment = _data(harness, options=[MD5SignatureOption()])
    return _packet(harness, segment)


def _no_flag(harness: ServerHarness) -> IPPacket:
    segment = _data(harness, flags=0, ack=0)
    return _packet(harness, segment)


def _fin_only(harness: ServerHarness) -> IPPacket:
    # FIN without ACK, carrying payload: modern servers drop it on the
    # no-ACK-flag path while the GFW consumes the data (Table 3 row 8).
    segment = harness._segment(FIN, seq=harness.snd_nxt(), payload=b"PROBEDATA")
    return _packet(harness, segment)


def _old_timestamp(harness: ServerHarness) -> IPPacket:
    stale = (harness.client_tsval - 500_000) & 0xFFFFFFFF
    segment = _data(harness, options=[TimestampOption(tsval=stale, tsecr=0)])
    return _packet(harness, segment)


_BOTH = (TCPState.SYN_RECV, TCPState.ESTABLISHED)

#: The nine probes of Table 3, in the paper's row order.
STANDARD_PROBES: Tuple[IgnoreProbe, ...] = (
    IgnoreProbe(
        "oversize-ip-length", "IP total length > actual length", "Any",
        _BOTH, _oversize_ip,
    ),
    IgnoreProbe(
        "short-tcp-header", "TCP Header Length < 20", "Any",
        _BOTH, _short_header,
    ),
    IgnoreProbe(
        "bad-checksum", "TCP checksum incorrect", "Any",
        _BOTH, _bad_checksum,
    ),
    IgnoreProbe(
        "rstack-bad-ack", "Wrong acknowledgement number", "RST+ACK",
        (TCPState.SYN_RECV,), _rstack_bad_ack,
    ),
    IgnoreProbe(
        "ack-bad-ack", "Wrong acknowledgement number", "ACK",
        _BOTH, _ack_bad_ack,
    ),
    IgnoreProbe(
        "unsolicited-md5", "Has unsolicited MD5 Optional Header", "Any",
        _BOTH, _md5_option,
    ),
    IgnoreProbe(
        "no-flag", "TCP packet with no flag", "No flag",
        _BOTH, _no_flag,
    ),
    IgnoreProbe(
        "fin-only", "TCP packet with only FIN flag", "FIN",
        _BOTH, _fin_only,
    ),
    IgnoreProbe(
        "old-timestamp", "Timestamps too old", "ACK",
        _BOTH, _old_timestamp, requires_timestamps=True,
    ),
)


def _syn_in_established(harness: ServerHarness) -> IPPacket:
    segment = harness._segment(SYN, seq=harness.snd_nxt())
    return _packet(harness, segment)


#: Extra probes used by the §5.3 cross-validation but not in Table 3
#: (a SYN in ESTABLISHED is not a *safe* insertion packet because the
#: evolved GFW resynchronizes on it — it is, in fact, a strategy).
EXTENDED_PROBES: Tuple[IgnoreProbe, ...] = STANDARD_PROBES + (
    IgnoreProbe(
        "syn-in-established", "SYN while connection established", "SYN",
        (TCPState.ESTABLISHED,), _syn_in_established,
    ),
)


@dataclass
class IgnorePathResult:
    probe: IgnoreProbe
    state: TCPState
    verdict: IgnoreVerdict
    drop_reasons: List[str] = field(default_factory=list)


def probe_server(
    probe: IgnoreProbe,
    state: TCPState,
    profile: StackProfile = LINUX_4_4,
    seed: int = 99,
) -> IgnorePathResult:
    """Fire one probe at a server in ``state`` and classify the result."""
    if probe.requires_timestamps and not profile.use_timestamps:
        return IgnorePathResult(probe, state, IgnoreVerdict.NOT_APPLICABLE)
    harness = ServerHarness(profile=profile, seed=seed)
    connection = harness.drive_to(state)
    before = _ConnSnapshot.of(connection)
    drops_before = len(connection.drop_log)
    harness.fire(probe.build(harness))
    if before.unchanged(connection):
        verdict = IgnoreVerdict.IGNORED
    else:
        verdict = IgnoreVerdict.ACCEPTED
    reasons = [reason.value for reason, _ in connection.drop_log[drops_before:]]
    return IgnorePathResult(probe, state, verdict, reasons)


def run_ignore_path_analysis() -> List[IgnorePathResult]:
    """The full server-side enumeration of the standard probes on Linux 4.4."""
    results: List[IgnorePathResult] = []
    for probe in STANDARD_PROBES:
        for state in probe.states:
            results.append(probe_server(probe, state, LINUX_4_4))
    return results


def ignored_probes() -> Dict[str, List[TCPState]]:
    """Map of probe name -> states in which Linux 4.4 ignores it."""
    summary: Dict[str, List[TCPState]] = {}
    for result in run_ignore_path_analysis():
        if result.verdict is IgnoreVerdict.IGNORED:
            summary.setdefault(result.probe.name, []).append(result.state)
    return summary
