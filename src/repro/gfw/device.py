"""The GFW device: an on-path tap running the inferred state machine.

One :class:`GFWDevice` implements *both* generations of the model — the
prior-work model and the §4 evolved model — selected by its
:class:`~repro.gfw.models.GFWConfig`.  The state machine below is a
direct transcription of the paper's findings:

- TCB creation on SYN (both models) and on SYN/ACK (evolved, NB1), the
  latter *assuming the SYN/ACK's source is the server* — which is what
  TCB Reversal (§5.2) exploits;
- the RESYNC state entered on multiple client-side SYNs, multiple
  server-side SYN/ACKs, or a SYN/ACK acking an unexpected sequence
  number (NB2), and left by adopting the sequence number of the next
  client data packet or server SYN/ACK;
- RST/RST-ACK teardown that, on evolved devices, sometimes becomes a
  transition to RESYNC instead (NB3) — markedly more often during the
  handshake.  The paper observed this behaviour to be *consistent per
  path per period*, so the coin is flipped once per cluster, not per
  packet;
- no validation of checksums, MD5 options, timestamps, or ACK numbers
  (Table 3's GFW column), making all of §5.3's insertion packets land;
- first-wins IP-fragment reassembly, configurable TCP out-of-order
  preference (the generations differ), and first-wins in-order semantics
  via the shared :class:`~repro.tcp.reassembly.ReceiveBuffer`;
- type-1/type-2 reset signatures and the 90-second blacklist with forged
  SYN/ACKs (§2.1);
- UDP DNS poisoning and Tor active probing as pluggable components.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Tuple

from repro.netstack.fragment import FragmentReassembler, OverlapPolicy
from repro.netstack.packet import (
    ACK,
    FIN,
    HANDSHAKE_FLAGS,
    IPPacket,
    RST,
    SYN,
    SYN_ACK,
    TCPSegment,
    UDPDatagram,
    seq_add,
    seq_sub,
)
from repro.netstack.wire import tcp_checksum_valid
from repro.netstack.options import KIND_MD5SIG
from repro.netsim.path import Direction, Tap
from repro.netsim.simclock import SimClock
from repro.gfw.blacklist import Blacklist
from repro.gfw.cluster import GFWCluster
from repro.gfw.dpi import StreamInspector
from repro.gfw.flow import FlowTable, GFWFlow, GFWFlowState, connection_key
from repro.gfw.models import GFWConfig
from repro.gfw.resets import ResetInjector
from repro.gfw.rules import Detection
from repro.telemetry.recorder import Recorder, get_recorder
from repro.telemetry.metrics import get_registry

#: IP fragment overlap: both GFW generations keep the former (§3.2).
_IP_FRAG_POLICY = OverlapPolicy.FIRST_WINS

# Process-lifetime registry instruments, resolved once at import: devices
# are rebuilt per trial, and nine name lookups per device showed up in
# sweep profiles.  Safe because MetricsRegistry.reset() zeroes counters in
# place rather than replacing them.
_REGISTRY = get_registry()
_METRIC_RST_SENT = _REGISTRY.counter("gfw.rst_sent")
_METRIC_SYNACK_FORGED = _REGISTRY.counter("gfw.synack_forged")
_METRIC_DPI_MATCH = _REGISTRY.counter("dpi.match")
_METRIC_DPI_MISS = _REGISTRY.counter("dpi.miss")
_METRIC_BYTES = _REGISTRY.counter("gfw.bytes_inspected")
_METRIC_TCB_CREATED = _REGISTRY.counter("gfw.tcb_created")
_METRIC_TEARDOWN = _REGISTRY.counter("gfw.tcb_teardown")
_METRIC_RESYNC_ENTERED = _REGISTRY.counter("gfw.resync_entered")
_METRIC_RESYNC_EXITED = _REGISTRY.counter("gfw.resync_exited")
#: TCB-creation-to-DPI-match sim-latency (seconds).  Sim times are
#: deterministic, so this histogram survives the parity pins.
_METRIC_DPI_MATCH_LATENCY = _REGISTRY.histogram(
    "dpi.match_latency",
    buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0),
)
#: Detections whose enforcement was suppressed by diurnal load — only
#: devices with a ``TemporalProfile`` installed (the ``heterogeneous``
#: route axis) ever increment it.
_METRIC_RESET_SUPPRESSED = _REGISTRY.counter("gfw.reset_suppressed_load")


def _eviction_reporter(recorder: Recorder, clock: SimClock, device: str):
    """A flow table's capacity-eviction hook: name the flow the censor forgot.

    The event is the attribution hook for eviction-induced errors: an
    ``active`` eviction of a flow the DPI had not finished with is a
    censorship false negative in the making, and one evicted out of
    RESYNC loses the pending resynchronization entirely.

    The hook closes over what it reports, not over the device: a bound
    method would tie device and table into a reference cycle that only
    the cyclic collector could free.
    """

    def on_evict(key: object, flow: GFWFlow) -> None:
        if recorder.events_on:
            # Namespaced keys are ``(int, ConnKey)``; plain keys are
            # ConnKey 2-tuples of (ip, port) endpoints, so the int test
            # disambiguates.
            namespace = (
                key[0]
                if isinstance(key, tuple) and key and isinstance(key[0], int)
                else None
            )
            recorder.publish(
                "gfw", "flow_evicted", time=clock.now, device=device,
                namespace=namespace,
                state=flow.state.value,
                after_fin=flow.fin_seen,
                believed_client=f"{flow.believed_client[0]}:{flow.believed_client[1]}",
            )

    return on_evict


class GFWDevice(Tap):
    """One censoring middlebox instance at a tap point."""

    #: The device never mutates observed packets and retains nothing past
    #: the synchronous observe call (fragments, the one retained case,
    #: are copied below), so the network may skip the defensive copy.
    observe_copies = False

    def __init__(
        self,
        name: str,
        hop: int,
        config: GFWConfig,
        clock: SimClock,
        rng: Optional[random.Random] = None,
        cluster: Optional[GFWCluster] = None,
        flows: Optional[FlowTable] = None,
        blacklist: Optional[Blacklist] = None,
        blocked_ips: Optional[set] = None,
    ) -> None:
        """``flows``, ``blacklist`` and ``blocked_ips`` default to private
        state; a fleet group passes its shared installation's (see
        :class:`~repro.gfw.cluster.SharedInstallation`), whose flow table
        reports evictions to its owner."""
        super().__init__(name, hop)
        self.config = config
        self.clock = clock
        self.rng = rng or random.Random(zlib.crc32(name.encode()))
        self.cluster = cluster or GFWCluster(self.rng, config.miss_probability)
        self.injector = ResetInjector(config.reset_type, self.rng)
        self._recorder = get_recorder()
        self.blacklist = (
            blacklist if blacklist is not None
            else Blacklist(config.blacklist_duration)
        )
        if flows is None:
            flows = FlowTable(config.max_flows)
            flows.on_evict = _eviction_reporter(self._recorder, clock, name)
        self.flows: FlowTable = flows
        #: Shared-device batch mode (fleet workloads): when set, every
        #: flow-table key is prefixed with this namespace so the flows of
        #: many multiplexed client trials stay distinct inside *one*
        #: shared :class:`FlowTable` even when their four-tuples collide.
        #: ``None`` (the default) keeps the historical un-prefixed keys.
        self.flow_namespace: Optional[int] = None
        self._fragments = FragmentReassembler(policy=_IP_FRAG_POLICY)
        #: IPs blocked wholesale after Tor active probing (§7.3).
        self.blocked_ips: set = blocked_ips if blocked_ips is not None else set()
        #: Measurement hooks.
        self.detections: List[Tuple[float, Detection]] = []
        self.missed_detections: List[Tuple[float, Detection]] = []
        self.resets_injected = 0
        self.forged_synacks_injected = 0
        #: Detections left unenforced by the diurnal load draw (Ensafi
        #: failure-to-inject; zero unless ``config.temporal`` is set).
        self.resets_suppressed = 0
        #: Stream bytes handed to DPI inspectors (resource accounting).
        self.bytes_inspected = 0
        #: Optional components, wired by the scenario builder.
        self.dns_poisoner = None  # type: Optional[object]
        self.active_prober = None  # type: Optional[object]
        # A device lives one trial, so the integers above are that
        # trial's counts, which `stats()` reports; the module-level
        # registry instruments count the same events process-wide.
        # NB3 behaviour is consistent per installation per period (§4, §8):
        # draw once per cluster and share across co-located devices.
        if not hasattr(self.cluster, "rst_resyncs_established"):
            self.cluster.rst_resyncs_established = (
                self.cluster.rng.random() < config.resync_on_rst_probability
            )
            self.cluster.rst_resyncs_handshake = (
                self.cluster.rng.random() < config.resync_on_rst_handshake_probability
            )

    # ------------------------------------------------------------------
    # Tap interface
    # ------------------------------------------------------------------
    def observe(self, packet: IPPacket, direction: Direction, now: float) -> None:
        # Inlined type dispatch: this runs for every packet at every tap,
        # so the is_fragment/is_udp/is_tcp property chain is unrolled.
        if packet.more_fragments or packet.frag_offset > 0:
            # Fragments are retained until the datagram completes, so the
            # reassembler must own a copy of the live packet (see
            # ``observe_copies``).
            whole = self._fragments.add(packet.copy())
            if whole is None:
                return
            packet = whole
        payload = packet.payload
        if payload.__class__ is TCPSegment:
            blocked = self.blocked_ips
            if blocked and (packet.src in blocked or packet.dst in blocked):
                self._enforce_ip_block(packet, now)
                return
            self._process_tcp(packet, payload, now)
            return
        if payload.__class__ is UDPDatagram:
            if self.dns_poisoner is not None:
                self.dns_poisoner.handle(self, packet, direction, now)

    # ------------------------------------------------------------------
    # Telemetry helpers: every TCB state transition goes through these so
    # the event stream names the NB1/NB2/NB3 behaviour responsible.
    # ------------------------------------------------------------------
    def _enter_resync(self, flow: GFWFlow, cause: str) -> None:
        already = flow.state is GFWFlowState.RESYNC
        flow.state = GFWFlowState.RESYNC
        if already:
            return
        _METRIC_RESYNC_ENTERED.inc()
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "resync_enter", time=self.clock.now,
                device=self.name, namespace=self.flow_namespace, cause=cause,
            )

    def _exit_resync(self, flow: GFWFlow, seq: int, via: str) -> None:
        flow.resynchronize_to(seq, self.config.rules, self.config.tcp_ooo_policy)
        _METRIC_RESYNC_EXITED.inc()
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "resync_exit", time=self.clock.now,
                device=self.name, namespace=self.flow_namespace,
                via=via, adopted_seq=seq & 0xFFFFFFFF,
            )

    def _teardown(self, key: object, cause: str) -> None:
        del self.flows[key]
        _METRIC_TEARDOWN.inc()
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "tcb_teardown", time=self.clock.now,
                device=self.name, namespace=self.flow_namespace, cause=cause,
            )

    # ------------------------------------------------------------------
    # TCP state machine
    # ------------------------------------------------------------------
    def _process_tcp(self, packet: IPPacket, segment: TCPSegment, now: float) -> None:
        blacklist = self.blacklist
        if blacklist.expiry and blacklist.contains(packet.src, packet.dst, now):
            self._enforce_blacklist(packet, segment, now)
            return
        src = (packet.src, segment.src_port)
        dst = (packet.dst, segment.dst_port)
        # ``connection_key(src, dst)``, inlined; ``flow_for`` looks
        # flows up by that key.
        key = (src, dst) if src <= dst else (dst, src)
        if self.flow_namespace is not None:
            key = (self.flow_namespace, key)

        # GFW-side acceptance checks (all off in both real configs —
        # exactly the discrepancies of Table 3 — but modelled so the
        # ablation benchmarks can turn them on as countermeasures, §8).
        config = self.config
        if config.validates_checksum and not tcp_checksum_valid(
            segment, packet.src, packet.dst
        ):
            return
        if (
            config.drops_unsolicited_md5
            and segment.find_option(KIND_MD5SIG) is not None
        ):
            return

        flow = self.flows.get(key)
        if flow is None:
            self._maybe_create_flow(key, src, dst, segment, now)
            return

        from_client = src == flow.believed_client
        flags = segment.flags
        masked = flags & HANDSHAKE_FLAGS
        if masked == SYN:
            self._on_syn(flow, key, from_client, segment)
            return
        if masked == SYN_ACK:
            self._on_synack(flow, from_client, segment)
            return
        if flags & RST:
            self._on_rst(flow, key, segment)
            return
        if flags & FIN:
            flow.fin_seen = True
            if config.fin_tears_down:
                self._teardown(key, "fin")
                return
        self._on_data_or_ack(flow, key, from_client, segment, now)

    def _maybe_create_flow(
        self,
        key: object,
        src: Tuple[str, int],
        dst: Tuple[str, int],
        segment: TCPSegment,
        now: float,
    ) -> None:
        config = self.config
        masked = segment.flags & HANDSHAKE_FLAGS
        if masked == SYN:
            flow = GFWFlow(
                believed_client=src,
                believed_server=dst,
                state=GFWFlowState.ESTABLISHED,
                created_at=now,
                seq_window=config.seq_window,
            )
            flow.syn_count = 1
            flow.init_monitoring(
                seq_add(segment.seq, 1), config.rules, config.tcp_ooo_policy
            )
            self.flows[key] = flow
            _METRIC_TCB_CREATED.inc()
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "tcb_create", time=now, device=self.name, on="syn",
                    namespace=self.flow_namespace,
                    believed_client=f"{src[0]}:{src[1]}",
                    believed_server=f"{dst[0]}:{dst[1]}",
                )
            return
        if masked == SYN_ACK and config.creates_tcb_on_synack:
            # NB1 — and the device assumes the SYN/ACK's *source* is the
            # server, which is what TCB Reversal turns against it.
            flow = GFWFlow(
                believed_client=dst,
                believed_server=src,
                state=GFWFlowState.ESTABLISHED,
                created_at=now,
                seq_window=config.seq_window,
            )
            flow.synack_count = 1
            flow.init_monitoring(
                segment.ack, config.rules, config.tcp_ooo_policy
            )
            flow.note_server_activity(seq_add(segment.seq, 1))
            self.flows[key] = flow
            _METRIC_TCB_CREATED.inc()
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "tcb_create", time=now, device=self.name, on="synack",
                    namespace=self.flow_namespace,
                    believed_client=f"{dst[0]}:{dst[1]}",
                    believed_server=f"{src[0]}:{src[1]}",
                    note="NB1: SYN/ACK source assumed to be the server",
                )
        # Any other packet without a TCB is invisible to the censor —
        # the reason TCB-teardown evasion works at all.

    def _on_syn(
        self, flow: GFWFlow, key: object, from_client: bool, segment: TCPSegment
    ) -> None:
        if not from_client:
            # A SYN from the believed-server side (only happens on
            # reversed flows); observed to be ignored (§5.2).
            return
        flow.syn_count += 1
        if flow.syn_count >= 2 and self.config.supports_resync:
            # NB2(a): multiple client-side SYNs -> RESYNC.
            self._enter_resync(flow, "multiple client SYNs (NB2a)")
        # The old model keeps the TCB of the first SYN and ignores later
        # ones (prior assumption 2) — nothing else to do.

    def _on_synack(
        self, flow: GFWFlow, from_client: bool, segment: TCPSegment
    ) -> None:
        if from_client:
            # SYN/ACK arriving from the believed-client side: ignored
            # (§5.2: the reversal insertion does not trigger RESYNC on
            # the already-reversed flow).
            return
        flow.synack_count += 1
        flow.note_server_activity(seq_add(segment.seq, 1))
        if not self.config.supports_resync:
            return
        if flow.state is GFWFlowState.RESYNC:
            # NB2: the next server->client SYN/ACK resynchronizes.
            self._exit_resync(flow, segment.ack, "server SYN/ACK")
            return
        if flow.synack_count >= 2:
            # NB2(b): multiple SYN/ACKs from the server side.
            self._enter_resync(flow, "multiple server SYN/ACKs (NB2b)")
        elif segment.ack != flow.client_next_seq:
            # NB2(c): SYN/ACK acknowledging an unexpected number.
            self._enter_resync(flow, "SYN/ACK acking unexpected seq (NB2c)")

    def _on_rst(self, flow: GFWFlow, key: object, segment: TCPSegment) -> None:
        if not self.config.supports_resync:
            self._teardown(key, "rst")  # prior assumption 3: RST tears down
            return
        resyncs = (
            self.cluster.rst_resyncs_handshake
            if not flow.handshake_complete
            else self.cluster.rst_resyncs_established
        )
        if resyncs:
            self._enter_resync(flow, "RST during tracking (NB3)")
        else:
            self._teardown(key, "rst")

    def _on_data_or_ack(
        self,
        flow: GFWFlow,
        key: object,
        from_client: bool,
        segment: TCPSegment,
        now: float,
    ) -> None:
        if not from_client:
            if segment.payload:
                flow.note_server_activity(seq_add(segment.seq, len(segment.payload)))
            return
        if not segment.payload:
            # Pure ACKs neither resynchronize (§4) nor get inspected, but
            # they do tell the device the handshake went through.
            if flow.synack_count > 0:
                flow.handshake_complete = True
            return
        # -- believed-client data ------------------------------------------
        config = self.config
        flags = segment.flags
        if flags == 0 and not config.accepts_no_flag_data:
            return
        if config.requires_ack_flag and not flags & ACK:
            return
        if (
            config.validates_ack_number
            and flags & ACK
            and flow.server_seq_valid
        ):
            ack_offset = seq_sub(segment.ack, flow.server_next_seq)
            if not -flow.seq_window < ack_offset < flow.seq_window:
                return  # a minority of devices sanity-check ACK numbers
        if flow.state is GFWFlowState.RESYNC:
            # NB2: adopt this packet's sequence number.  This is the hook
            # the desynchronization building block (§5.1) abuses with an
            # out-of-window junk packet.
            self._exit_resync(flow, segment.seq, "client data")
        else:
            # ``seq_sub``, inlined: the signed distance in sequence space.
            offset = (segment.seq - flow.client_next_seq) & 0xFFFFFFFF
            if offset > 0x7FFFFFFF:
                offset -= 0x100000000
            if not -flow.seq_window < offset < flow.seq_window:
                return  # out-of-window: the device ignores it
        flow.handshake_complete = True
        assert flow.buffer is not None and flow.inspector is not None
        if config.stateless_mode:
            # §4's eliminated hypothesis (2): match each packet on its
            # own, no reassembly.  A keyword split across segments is
            # invisible to this design — which is how the paper proved
            # the real GFW does not work this way.
            from repro.gfw.dpi import StreamInspector

            one_shot = StreamInspector(config.rules)
            self.bytes_inspected += len(segment.payload)
            _METRIC_BYTES.inc(len(segment.payload))
            detection = one_shot.feed(segment.payload)
            flow.client_next_seq = seq_add(
                segment.seq, len(segment.payload)
            )
        else:
            delivered = flow.buffer.add(segment.seq, segment.payload)
            flow.client_next_seq = flow.buffer.rcv_nxt
            if not delivered:
                return
            self.bytes_inspected += len(delivered)
            _METRIC_BYTES.inc(len(delivered))
            detection = flow.inspector.feed(delivered)
        if detection is not None and not flow.punished:
            flow.punished = True
            self._on_detection(flow, key, detection, now)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def _on_detection(
        self, flow: GFWFlow, key: object, detection: Detection, now: float
    ) -> None:
        if self.cluster.flow_missed(flow.endpoints_key()):
            self.missed_detections.append((now, detection))
            _METRIC_DPI_MISS.inc()
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "dpi_miss", time=now, device=self.name,
                    namespace=self.flow_namespace,
                    rule=detection.kind, detail=detection.detail,
                    note="cluster overload draw: flow escapes tracking",
                )
            return
        self.detections.append((now, detection))
        _METRIC_DPI_MATCH.inc()
        # Dyadic quantization (multiples of 2^-20 s): keeps the
        # histogram's float sum bit-identical under any serial/parallel
        # worker grouping (see the fleet latency observation).
        _METRIC_DPI_MATCH_LATENCY.observe(
            round(max(0.0, now - flow.created_at) * 1048576.0) / 1048576.0
        )
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "dpi_match", time=now, device=self.name,
                namespace=self.flow_namespace,
                rule=detection.kind, detail=detection.detail,
            )
        if detection.kind == "tor" and self.active_prober is not None:
            self.active_prober.schedule_probe(
                self, flow.believed_server[0], flow.believed_server[1], now
            )
            return
        temporal = self.config.temporal
        if temporal is not None and self.rng.random() < (
            temporal.reset_suppression(self.config.sim_hour)
        ):
            # Ensafi failure-to-inject: the DPI match stands, but the
            # loaded injector emits no volley and records no blacklist
            # entry.  One draw per detected flow (`flow.punished` is
            # already latched by the caller).
            self.resets_suppressed += 1
            _METRIC_RESET_SUPPRESSED.inc()
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "reset_suppressed", time=now, device=self.name,
                    namespace=self.flow_namespace,
                    sim_hour=self.config.sim_hour,
                    rule=detection.kind,
                )
            return
        self._punish(flow, now)
        if self.config.reset_type == 2:
            self.blacklist.add(
                flow.believed_client[0], flow.believed_server[0], now
            )
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "blacklist_add", time=now, device=self.name,
                    namespace=self.flow_namespace,
                    client=flow.believed_client[0], server=flow.believed_server[0],
                )

    def _punish(self, flow: GFWFlow, now: float) -> None:
        """Inject the per-type reset volley toward both endpoints."""
        toward_client = self.injector.forged_resets(
            spoof_src=flow.believed_server,
            toward=flow.believed_client,
            seq_base=flow.server_next_seq if flow.server_seq_valid else 0,
            ack_hint=flow.client_next_seq,
        )
        toward_server = self.injector.forged_resets(
            spoof_src=flow.believed_client,
            toward=flow.believed_server,
            seq_base=flow.client_next_seq,
            ack_hint=flow.server_next_seq,
        )
        self._inject_resets(toward_client + toward_server)
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "rst_sent", time=now, device=self.name,
                namespace=self.flow_namespace,
                count=len(toward_client) + len(toward_server),
                reset_type=self.config.reset_type,
            )

    def _enforce_blacklist(
        self, packet: IPPacket, segment: TCPSegment, now: float
    ) -> None:
        """§2.1: during the 90 s window, SYNs get forged SYN/ACKs (type-2
        only) and everything else gets reset pairs."""
        src = (packet.src, segment.src_port)
        dst = (packet.dst, segment.dst_port)
        if segment.is_pure_syn and self.config.reset_type == 2:
            forged = self.injector.forged_synack(
                spoof_src=dst, toward=src, acked_seq=segment.seq
            )
            self.inject((forged,))
            self.forged_synacks_injected += 1
            _METRIC_SYNACK_FORGED.inc()
            if self._recorder.events_on:
                self._recorder.publish(
                    "gfw", "synack_forged", time=now, device=self.name,
                    namespace=self.flow_namespace,
                    toward=f"{src[0]}:{src[1]}",
                )
            return
        if segment.is_rst:
            return  # nothing to disrupt
        seq_base = segment.ack if segment.has_ack else 0
        end_seq = segment.end_seq
        volley = self.injector.forged_resets(
            spoof_src=dst, toward=src, seq_base=seq_base, ack_hint=end_seq
        ) + self.injector.forged_resets(
            spoof_src=src, toward=dst, seq_base=end_seq, ack_hint=seq_base
        )
        self._inject_resets(volley)
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "rst_sent", time=now, device=self.name,
                namespace=self.flow_namespace,
                count=len(volley), note="blacklist enforcement",
            )

    def _enforce_ip_block(self, packet: IPPacket, now: float) -> None:
        """Whole-IP blocking after a confirmed Tor probe (§7.3)."""
        if not packet.is_tcp:
            return
        segment = packet.tcp
        if segment.is_rst:
            return
        src = (packet.src, segment.src_port)
        dst = (packet.dst, segment.dst_port)
        seq_base = segment.ack if segment.has_ack else 0
        volley = self.injector.forged_resets(
            spoof_src=dst, toward=src, seq_base=seq_base, ack_hint=segment.end_seq
        )
        self._inject_resets(volley)
        if self._recorder.events_on:
            self._recorder.publish(
                "gfw", "rst_sent", time=now, device=self.name,
                namespace=self.flow_namespace,
                count=len(volley), note="ip block",
            )

    def block_ip(self, ip: str) -> None:
        self.blocked_ips.add(ip)

    def _inject_resets(self, volley: List[IPPacket]) -> None:
        """Put a forged reset volley on the wire and count it once."""
        self.inject(volley)
        self.resets_injected += len(volley)
        _METRIC_RST_SENT.inc(len(volley))

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the analysis package
    # ------------------------------------------------------------------
    def flow_for(
        self, ip_a: str, port_a: int, ip_b: str, port_b: int
    ) -> Optional[GFWFlow]:
        return self.flows.get(connection_key((ip_a, port_a), (ip_b, port_b)))

    def stats(self) -> Dict[str, int]:
        """A resource-accounting snapshot of this device.

        ``matcher_state_bytes`` sums the per-flow matcher cursors over
        the live flow table plus the (shared, counted once) compiled
        automaton — the quantity the streaming redesign bounds, where
        the rescan engine's cost grew with every buffered stream.

        A device lives one trial, so these are that trial's counts; the
        resource-accounting tests read them.  For process-lifetime,
        worker-mergeable accounting use the same quantities in the
        :class:`repro.telemetry.MetricsRegistry` (``gfw.*``, ``dpi.*``).
        """
        matcher_state_bytes = 0
        counted_automata: set = set()
        for flow in self.flows.values():
            inspector = flow.inspector
            if inspector is None:
                continue
            matcher_state_bytes += inspector.state_bytes
            automaton_id = id(inspector.automaton)
            if automaton_id not in counted_automata:
                counted_automata.add(automaton_id)
                matcher_state_bytes += inspector.automaton.state_bytes()
        return {
            "flows_tracked": len(self.flows),
            "flows_created": self.flows.flows_created,
            "flows_evicted": self.flows.flows_evicted,
            "flows_evicted_active": self.flows.flows_evicted_active,
            "flows_evicted_after_fin": self.flows.flows_evicted_after_fin,
            "peak_flows_tracked": self.flows.peak_tracked,
            "flow_table_capacity": self.flows.capacity,
            "bytes_inspected": self.bytes_inspected,
            "matcher_state_bytes": matcher_state_bytes,
            "detections": len(self.detections),
            "missed_detections": len(self.missed_detections),
            "resets_injected": self.resets_injected,
            "forged_synacks_injected": self.forged_synacks_injected,
        }
