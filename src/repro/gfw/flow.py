"""Per-flow shadow state kept by a GFW device.

A :class:`GFWFlow` is the censor's counterpart of a TCB.  The critical
design point — and the entire attack surface the paper maps — is that
this structure is maintained from *passively observed* packets with no
knowledge of what the endpoints actually accepted.  The evolved model's
"re-synchronization state" (§4) is the ``RESYNC`` member here.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, ValuesView

from repro.netstack.fragment import OverlapPolicy
from repro.netstack.packet import seq_add
from repro.gfw.dpi import StreamInspector
from repro.gfw.rules import RuleSet
from repro.tcp.reassembly import ReceiveBuffer
from repro.telemetry.metrics import get_registry

ConnKey = Tuple[Tuple[str, int], Tuple[str, int]]


class GFWFlowState(enum.Enum):
    """The GFW's per-flow tracking states as inferred by the paper."""

    #: TCB exists; data from the believed client is reassembled and
    #: inspected against the expected sequence number.
    ESTABLISHED = "ESTABLISHED"
    #: NB2: the device saw an ambiguous handshake (multiple SYNs, multiple
    #: SYN/ACKs, or a SYN/ACK acking an unexpected number) and will adopt
    #: the sequence number of the *next* client data packet or server
    #: SYN/ACK it sees.
    RESYNC = "RESYNC"


@dataclass
class GFWFlow:
    """The censor's view of one TCP connection."""

    #: Who the device believes initiated the connection.  TCB Reversal
    #: (§5.2) works precisely because a SYN/ACK-created TCB gets this
    #: backwards.
    believed_client: Tuple[str, int]
    believed_server: Tuple[str, int]
    state: GFWFlowState
    #: Next sequence number expected from the believed client.
    client_next_seq: int = 0
    #: Latest observed sequence point on the believed server side (the
    #: "X" used for forged reset sequence numbers, §2.1 footnote 1).
    server_next_seq: int = 0
    server_seq_valid: bool = False
    syn_count: int = 0
    synack_count: int = 0
    #: Set when the cluster-level overload draw said this flow escapes
    #: tracking (the paper's persistent 2.8 % no-strategy success rate).
    missed: bool = False
    #: Monitored-direction reassembly and inspection.
    buffer: Optional[ReceiveBuffer] = None
    inspector: Optional[StreamInspector] = None
    created_at: float = 0.0
    #: Window the device tolerates around ``client_next_seq``.
    seq_window: int = 65535
    #: Set once the device has seen evidence the 3-way handshake finished
    #: (a client pure-ACK after the SYN/ACK, or client data); NB3's
    #: resync-on-RST probability differs across this boundary (§4).
    handshake_complete: bool = False
    #: Latched once this flow has triggered enforcement.
    punished: bool = False
    #: Set when the device has observed a FIN on this connection.  Under
    #: ``fin_tears_down=False`` (the evolved default) the TCB survives the
    #: FIN, so the table distinguishes evicting a *finished* flow (cheap,
    #: no censorship consequence) from evicting one still mid-stream.
    fin_seen: bool = False

    def init_monitoring(
        self,
        client_next_seq: int,
        rules: RuleSet,
        ooo_policy: OverlapPolicy,
    ) -> None:
        """(Re)anchor the monitored stream at ``client_next_seq``."""
        self.client_next_seq = client_next_seq & 0xFFFFFFFF
        self.buffer = ReceiveBuffer(self.client_next_seq, policy=ooo_policy)
        if self.inspector is None:
            self.inspector = StreamInspector(rules)

    def resynchronize_to(
        self, seq: int, rules: RuleSet, ooo_policy: OverlapPolicy
    ) -> None:
        """Adopt a new expected client sequence number (leaving RESYNC).

        The previously reassembled bytes stay with the inspector (the GFW
        latches detections), but the reassembly anchor moves — packets at
        the *old* sequence numbers are out-of-window from now on, which is
        exactly what the desynchronization building block (§5.1) exploits.
        """
        self.client_next_seq = seq & 0xFFFFFFFF
        self.buffer = ReceiveBuffer(self.client_next_seq, policy=ooo_policy)
        self.state = GFWFlowState.ESTABLISHED

    def note_server_activity(self, seq_end: int) -> None:
        self.server_next_seq = seq_end & 0xFFFFFFFF
        self.server_seq_valid = True

    def endpoints_key(self) -> ConnKey:
        return connection_key(self.believed_client, self.believed_server)


def connection_key(src: Tuple[str, int], dst: Tuple[str, int]) -> ConnKey:
    """Direction-agnostic key used for the device's flow table: the two
    ends in ascending order."""
    return (src, dst) if src <= dst else (dst, src)


# Process-lifetime registry instruments, resolved once at import as in
# ``gfw/device.py``: every trial builds a table per device.
_REGISTRY = get_registry()
_METRIC_CREATED = _REGISTRY.counter("gfw.flows_created")
_METRIC_EVICTED = _REGISTRY.counter("gfw.flows_evicted")
_METRIC_EVICTED_ACTIVE = _REGISTRY.counter("gfw.flows_evicted_active")
_METRIC_EVICTED_AFTER_FIN = _REGISTRY.counter("gfw.flows_evicted_after_fin")


class FlowTable:
    """The device's bounded TCB store with least-recently-used eviction.

    §2.1 notes that stateful tracking is "costly" for the GFW — a real
    middlebox cannot keep every flow it has ever seen.  This table
    bounds the device to ``capacity`` concurrent TCBs and silently
    evicts the least-recently-*touched* flow to admit a new one, which
    has an observable censorship consequence: an evicted flow becomes
    invisible until a new TCB-creating packet (SYN, or SYN/ACK under
    NB1) appears, exactly as if the connection had never existed.

    A "touch" is any lookup or (re)insertion by the device's packet
    handler, so recency tracks packet activity, not creation order.
    The table keeps per-table resource-accounting counters surfaced
    through :meth:`GFWDevice.stats` (a table lives as long as its
    device, one trial, except a fleet's shared table) and mirrors
    every create/evict into the process metrics registry
    (``gfw.flows_created`` / ``gfw.flows_evicted``, process-lifetime,
    merged across the worker pool).

    Evictions are split by what was lost: ``flows_evicted_active`` counts
    flows dropped mid-stream (the censor loses inspection state it still
    needed — an evicted sensitive flow becomes a false negative), while
    ``flows_evicted_after_fin`` counts flows whose FIN the device had
    already seen (bookkeeping churn only).  The registry mirrors the
    split as ``gfw.flows_evicted_active`` / ``gfw.flows_evicted_after_fin``.

    ``on_evict`` (when set) is called as ``on_evict(key, flow)`` for
    every capacity eviction — the fleet engine uses it to attribute
    eviction-induced misclassifications to specific client flows.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("flow table capacity must be >= 1")
        self.capacity = capacity
        self._flows: "OrderedDict[object, GFWFlow]" = OrderedDict()
        self.flows_created = 0
        self.flows_evicted = 0
        self.flows_evicted_active = 0
        self.flows_evicted_after_fin = 0
        self.peak_tracked = 0
        self.on_evict: Optional[Callable[[object, GFWFlow], None]] = None

    # -- the dict-shaped API the device and benches use ------------------
    def get(self, key: object) -> Optional[GFWFlow]:
        flow = self._flows.get(key)
        if flow is not None:
            self._flows.move_to_end(key)
        return flow

    def __getitem__(self, key: object) -> GFWFlow:
        flow = self.get(key)
        if flow is None:
            raise KeyError(key)
        return flow

    def __setitem__(self, key: object, flow: GFWFlow) -> None:
        if key in self._flows:
            self._flows[key] = flow
            self._flows.move_to_end(key)
            return
        if len(self._flows) >= self.capacity:
            evicted_key, evicted = self._flows.popitem(last=False)
            self.flows_evicted += 1
            _METRIC_EVICTED.inc()
            if evicted.fin_seen:
                self.flows_evicted_after_fin += 1
                _METRIC_EVICTED_AFTER_FIN.inc()
            else:
                self.flows_evicted_active += 1
                _METRIC_EVICTED_ACTIVE.inc()
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted)
        self._flows[key] = flow
        self.flows_created += 1
        _METRIC_CREATED.inc()
        if len(self._flows) > self.peak_tracked:
            self.peak_tracked = len(self._flows)

    def __delitem__(self, key: object) -> None:
        del self._flows[key]

    def __contains__(self, key: object) -> bool:
        return key in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[object]:
        return iter(self._flows)

    def keys(self):
        return self._flows.keys()

    def values(self) -> "ValuesView[GFWFlow]":
        return self._flows.values()

    def items(self):
        return self._flows.items()


def expected_reset_seqs(flow: GFWFlow) -> Tuple[int, int, int]:
    """The three type-2 forged-reset sequence numbers (X, X+1460, X+4380)."""
    x = flow.server_next_seq
    return (x, seq_add(x, 1460), seq_add(x, 4380))
