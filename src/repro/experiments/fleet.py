"""Fleet-scale concurrent-flow engine: many clients, one shared GFW.

The paper measures the GFW one client flow at a time, so its stateful
machinery — the bounded TCB table (§2.1 "costly"), the resync states
(§4), the 90-second blacklist — is never observed under concurrent
load.  This module multiplexes thousands-to-millions of simulated
client flows through **one shared censoring installation**: every flow
still gets its own freshly built topology (client, path, TCP stacks),
but the GFW devices of all flows in a group are built on one shared
:class:`~repro.gfw.flow.FlowTable`, one shared
:class:`~repro.gfw.blacklist.Blacklist`, one shared
:class:`~repro.gfw.cluster.GFWCluster`, and one shared blocked-IP set.
Flow-table keys are namespaced by a global flow id
(:attr:`GFWDevice.flow_namespace`), so the four-tuples of flows that
share endpoints never alias while LRU churn, resync-state pressure, and
blacklist contention are exercised for real.

Everything is deterministic by construction:

- the workload is a pure function of ``(FleetSpec, flow index)`` —
  site popularity, benign/sensitive mix, vantage, strategy, and trial
  seed all derive from crc32 hashes of the spec seed and the index;
- flows are partitioned into ``spec.groups`` client groups (round
  robin by index), each group owning one shared GFW installation, so a
  group is a pure function of ``(spec, group_index)`` and groups can
  run serially or in contiguous chunks via
  :func:`~repro.experiments.parallel.map_trials` with byte-identical
  merged results and trial-semantic telemetry;
- within a group, flows run in waves of ``spec.window`` concurrent
  trials on one :class:`~repro.netsim.batch.BatchSim` heap; the heap's
  ``(time, seq)`` order is deterministic, so the race for shared
  tables replays exactly.

The eviction-induced error accounting (a sensitive flow whose TCB was
LRU-evicted mid-stream sails past the DPI; a benign flow reset purely
because a *different* flow blacklisted its host pair) is an
**extension** of the paper's model — the paper never measured the live
GFW under load — and is labelled as such in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.intang import INTANG
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.parallel import map_trials
from repro.experiments.outcomes import Outcome, VerdictDistribution, classify
from repro.experiments.runner import attach_intang, start_http_request
from repro.experiments.scenarios import (
    Scenario,
    acquire_scenario,
    release_scenario,
)
from repro.experiments.vantage import CHINA_VANTAGE_POINTS, VantagePoint
from repro.experiments.websites import Website, outside_china_catalog
from repro.gfw.blacklist import Blacklist
from repro.gfw.cluster import GFWCluster, SharedInstallation
from repro.gfw.flow import FlowTable, GFWFlow, GFWFlowState
from repro.gfw import heterogeneity
from repro.gfw.models import model_variant_configs
from repro.lazyrandom import LazyRandom
from repro.netsim.batch import BatchSim
from repro.strategies.registry import TABLE1_ROWS
from repro.telemetry.export import latency_summary
from repro.telemetry.flight import packet_summary, tcb_summary
from repro.telemetry.metrics import Histogram, get_registry
from repro.telemetry.recorder import get_recorder
from repro.telemetry.trace import make_span

__all__ = [
    "FleetSpec",
    "FlowSpec",
    "FleetResult",
    "SharedGFWState",
    "flow_spec",
    "site_index",
    "run_fleet",
    "run_fleet_group",
    "effectiveness_curve",
    "DEFAULT_FLEET_STRATEGIES",
]

#: Table-1 strategy ids in row order ("none" first), the default
#: round-robin assignment pool for sensitive flows.
DEFAULT_FLEET_STRATEGIES: Tuple[str, ...] = tuple(
    dict.fromkeys(strategy_id for _, strategy_id, _ in TABLE1_ROWS)
)

_REGISTRY = get_registry()
_FLEET_FLOWS = _REGISTRY.counter("fleet.flows")
_FLEET_SUCCESS = _REGISTRY.counter("fleet.success")
_FLEET_FAILURE1 = _REGISTRY.counter("fleet.failure1")
_FLEET_FAILURE2 = _REGISTRY.counter("fleet.failure2")
#: Sensitive flow that evaded with *no* DPI detection and no cluster
#: miss-draw, whose TCB was LRU-evicted mid-stream: the censor forgot
#: the flow before the keyword arrived.
_FLEET_EVICTION_FN = _REGISTRY.counter("fleet.eviction_false_negatives")
#: Benign flow that received forged resets — collateral from a host
#: pair some *other* flow blacklisted.
_FLEET_BLACKLIST_FP = _REGISTRY.counter("fleet.blacklist_false_positives")
#: Evictions that destroyed a flow parked in the RESYNC state (§4)
#: before it could re-anchor.
_FLEET_EVICT_RESYNC = _REGISTRY.counter("fleet.evictions_in_resync")

#: First-byte-to-verdict sim-latency buckets (seconds of simulated
#: time).  Deterministic — sim times are a pure function of the spec —
#: so this histogram is always on and survives the serial-vs-parallel
#: telemetry parity pins.
_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)
_FLEET_LATENCY = _REGISTRY.histogram(
    "fleet.flow_sim_latency", buckets=_LATENCY_BUCKETS
)


def _latency_histogram() -> Histogram:
    """An empty, unregistered histogram of one result's flow latencies."""
    return Histogram("fleet.flow_sim_latency", _LATENCY_BUCKETS)


_OUTCOME_COUNTERS = {
    Outcome.SUCCESS: _FLEET_SUCCESS,
    Outcome.FAILURE1: _FLEET_FAILURE1,
    Outcome.FAILURE2: _FLEET_FAILURE2,
}


def _unit(seed: int, index: int, salt: str) -> float:
    """A stable uniform draw in [0, 1) from (seed, index, salt)."""
    return (zlib.crc32(f"{seed}:{index}:{salt}".encode()) & 0xFFFFFFFF) / 2.0**32


@dataclass(frozen=True)
class FleetSpec:
    """A deterministic description of a whole client population.

    Every knob here is *workload* semantics: two runs with equal specs
    produce byte-identical merged results for any worker count.  In
    particular ``window`` (how many flows share one batch heap at a
    time) and ``groups`` (how many independent censoring installations
    the population is split across) change which flows race each other
    for shared GFW state, so they live in the spec, not in the
    execution layer.
    """

    #: Total client flows across all groups.
    flows: int
    seed: int = 2017
    #: Catalog size for the heavy-tailed site popularity.
    sites: int = 32
    #: Zipf-like exponent: site at popularity rank r has weight
    #: 1/(r+1)**alpha.
    zipf_alpha: float = 1.1
    #: Fraction of flows that request the sensitive path.
    sensitive_fraction: float = 0.5
    #: Strategy pool assigned round-robin to sensitive flows
    #: ("none" = the paper's baseline client).
    strategies: Tuple[str, ...] = DEFAULT_FLEET_STRATEGIES
    #: Client groups == independent shared GFW installations; the
    #: fan-out partitions groups (clients), never cells.
    groups: int = 4
    #: Concurrent flows per shared batch heap (wave size).
    window: int = 64
    #: GFW model variant for every device (see gfw/models.py).
    gfw_variant: str = "evolved"
    #: Shared flow-table capacity override; ``None`` keeps the
    #: variant's ``GFWConfig.max_flows``.
    max_flows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.flows < 1:
            raise ValueError("fleet needs at least one flow")
        if self.groups < 1 or self.window < 1 or self.sites < 1:
            raise ValueError("groups, window, and sites must be >= 1")
        if not 0.0 <= self.sensitive_fraction <= 1.0:
            raise ValueError("sensitive_fraction must be within [0, 1]")
        if self.zipf_alpha <= 0.0:
            raise ValueError("zipf_alpha must be positive")
        if not self.strategies:
            raise ValueError("strategies pool must not be empty")
        if self.max_flows is not None and self.max_flows < 1:
            raise ValueError("max_flows override must be >= 1")
        # A registered variant or heterogeneous.
        heterogeneity.validate_variant(self.gfw_variant)

    def group_indices(self, group: int) -> range:
        """Global flow indices owned by ``group`` (round robin)."""
        return range(group, self.flows, self.groups)


@dataclass(frozen=True)
class FlowSpec:
    """One client flow, fully determined by ``(FleetSpec, index)``."""

    index: int
    vantage: VantagePoint
    website: Website
    sensitive: bool
    #: ``None`` for benign flows (no interception framework at all);
    #: ``"none"`` for sensitive baseline clients.
    strategy_id: Optional[str]
    seed: int

    @property
    def label(self) -> str:
        """Aggregation bucket: strategy id, or ``benign``."""
        if not self.sensitive:
            return "benign"
        return self.strategy_id or "none"


@lru_cache(maxsize=64)
def _site_cdf(sites: int, alpha: float) -> Tuple[float, ...]:
    """Normalized CDF of the Zipf-like popularity distribution."""
    weights = [1.0 / (rank + 1) ** alpha for rank in range(sites)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


def site_index(spec: FleetSpec, index: int) -> int:
    """Popularity-rank site index for flow ``index`` (permutation-stable).

    The draw hashes ``(spec.seed, index)`` directly — no RNG stream is
    shared between flows — so any partition of the index space (group
    round robin, process chunks) sees exactly the same site per flow.
    """
    return bisect_right(
        _site_cdf(spec.sites, spec.zipf_alpha), _unit(spec.seed, index, "site")
    )


def flow_spec(spec: FleetSpec, index: int) -> FlowSpec:
    """The fully resolved workload of flow ``index`` (pure function)."""
    catalog = outside_china_catalog(count=spec.sites)
    website = catalog[site_index(spec, index)]
    vantage = CHINA_VANTAGE_POINTS[index % len(CHINA_VANTAGE_POINTS)]
    sensitive = _unit(spec.seed, index, "sensitive") < spec.sensitive_fraction
    strategy_id: Optional[str] = None
    if sensitive:
        strategy_id = spec.strategies[index % len(spec.strategies)]
    return FlowSpec(
        index=index,
        vantage=vantage,
        website=website,
        sensitive=sensitive,
        strategy_id=strategy_id,
        seed=zlib.crc32(f"{spec.seed}:{index}:trial".encode()) & 0x7FFFFFFF,
    )


class SharedGFWState:
    """The one censoring installation an entire flow group shares.

    Holds one flow table, blacklist, and blocked-IP set per device
    position of the model variant, plus one cluster, and persists them
    across every wave of the group — that persistence *is* the load:
    wave N's blacklistings disrupt wave N+1's benign flows, and a full
    table keeps evicting whichever flow was touched least recently.
    Every flow's devices are built directly on this state
    (``build_scenario``'s ``shared_censor`` asks :meth:`installation`
    for it), so a flow never builds a private censor.
    """

    def __init__(self, spec: FleetSpec, group: int) -> None:
        self.spec = spec
        #: an installation's variant -> its shared state, the one place
        #: that state is kept.  Homogeneous groups hold exactly one entry
        #: keyed by ``spec.gfw_variant``.
        self._installations: Dict[str, SharedInstallation] = {}
        #: Flow ids whose TCB was evicted while still mid-stream.
        self.evicted_active_flows: Set[int] = set()
        #: namespace -> the namespaced flow-table key that was evicted
        #: (anomaly-dump context: *which* TCB the LRU dropped).
        self.evicted_keys: Dict[int, object] = {}
        self.evictions_in_resync = 0
        self._recorder = get_recorder()
        if heterogeneity.is_heterogeneous(spec.gfw_variant):
            # One full installation per ensemble member, living side by
            # side: routes resolve to members, so wave N's blacklistings
            # on an evolved route never leak onto an old-model route —
            # exactly Ensafi's per-path state independence.  Seeds are
            # salted per member, keeping serial == parallel.
            for member in heterogeneity.ROUTE_ENSEMBLE.members:
                self._install_member(member, spec, group, salt=f":{member}")
        else:
            # Historical single-installation path: seed strings, draw
            # order, and list layout byte-identical to before the
            # heterogeneous axis existed (pinned by the fleet parity
            # tests).
            self._install_member(spec.gfw_variant, spec, group, salt="")

    def _install_member(
        self, member: str, spec: FleetSpec, group: int, salt: str
    ) -> None:
        """Build one member installation (cluster + per-position state)."""
        configs = model_variant_configs(member)
        group_rng = random.Random(
            zlib.crc32(f"{spec.seed}:{group}:gfw{salt}".encode()) & 0xFFFFFFFF
        )
        cluster = GFWCluster(
            rng=random.Random(group_rng.randrange(2**31)),
            miss_probability=DEFAULT_CALIBRATION.gfw_miss_probability,
        )
        # NB3 coins are drawn once per installation (device __init__
        # only draws when the cluster lacks them); pre-draw here from
        # the group RNG so the devices built on it all share one
        # consistent installation period.
        cluster.rst_resyncs_established = (
            cluster.rng.random() < configs[0].resync_on_rst_probability
        )
        cluster.rst_resyncs_handshake = (
            cluster.rng.random() < configs[0].resync_on_rst_handshake_probability
        )
        positions = []
        for config in configs:
            table = FlowTable(spec.max_flows or config.max_flows)
            table.on_evict = self._record_eviction
            positions.append((table, Blacklist(config.blacklist_duration), set()))
        self._installations[member] = SharedInstallation(cluster, tuple(positions))

    def installation(self, variant: str) -> SharedInstallation:
        """The shared state the devices of a route whose installation
        is model variant ``variant`` are built on."""
        return self._installations[variant]

    @property
    def flow_tables(self) -> List[FlowTable]:
        """Every installation's flow tables, member by member in device
        position order."""
        return [
            table
            for installation in self._installations.values()
            for table, _blacklist, _blocked in installation.positions
        ]

    @property
    def blacklists(self) -> List[Blacklist]:
        """Every installation's blacklists, in :attr:`flow_tables` order."""
        return [
            blacklist
            for installation in self._installations.values()
            for _table, blacklist, _blocked in installation.positions
        ]

    def _record_eviction(self, key: object, flow: GFWFlow) -> None:
        # Namespaced keys are (flow_id, ConnKey); the fleet engine
        # always namespaces, but stay defensive about plain keys.
        namespace = (
            key[0]
            if isinstance(key, tuple) and key and isinstance(key[0], int)
            else None
        )
        in_resync = flow.state is GFWFlowState.RESYNC
        if in_resync:
            self.evictions_in_resync += 1
            _FLEET_EVICT_RESYNC.inc()
        if not flow.fin_seen and namespace is not None:
            self.evicted_active_flows.add(namespace)
            self.evicted_keys[namespace] = key
        if self._recorder.events_on:
            self._recorder.publish(
                "fleet",
                "flow_evicted",
                flow=namespace,
                key=repr(key),
                state=flow.state.value,
                after_fin=flow.fin_seen,
                in_resync=in_resync,
            )

    def graft(self, scenario: Scenario, flow_id: int) -> None:
        """Namespace a flow's flow-table keys in the shared tables.

        The devices already sit on the shared state (built there by
        ``build_scenario``); per-flow measurement hooks (``detections``,
        reset counts) stay on each flow's own devices, so classification
        remains per-flow.
        """
        for device in scenario.gfw_devices:
            device.flow_namespace = flow_id

    def end_wave(self) -> None:
        """Per-wave housekeeping: drop the cluster's per-flow miss cache.

        Flows complete within their wave, so their miss draws are dead;
        clearing bounds the cache for million-flow runs.  Table,
        blacklist, and blocked-IP state live on — that is the load.
        """
        for installation in self._installations.values():
            installation.cluster.new_trial()

    @property
    def peak_flows_tracked(self) -> int:
        return max(table.peak_tracked for table in self.flow_tables)


@dataclass
class _FleetFlowContext:
    """One in-flight fleet flow between setup and finalization."""

    flow: FlowSpec
    scenario: Scenario
    intang: Optional[INTANG]
    exchange: object
    #: Sim-time marks: ``start`` (connection established) and
    #: ``verdict`` (first response parse or close, whichever first).
    timing: Dict[str, float] = field(default_factory=dict)
    #: The recorder's event watermark at setup: an anomaly dump slices
    #: the ring from here.
    since: int = 0


def _fleet_flow_setup(
    spec: FleetSpec,
    flow: FlowSpec,
    shared: SharedGFWState,
    batch: BatchSim,
) -> _FleetFlowContext:
    """Lease a scenario built on the shared censor and start the
    runner's HTTP request on it (:func:`~repro.experiments.runner.
    start_http_request`), with INTANG only on a flow that names a
    strategy; the flow's timing hooks mark its start and verdict."""
    since = get_recorder().next_seq
    scenario = acquire_scenario(
        vantage=flow.vantage,
        website=flow.website,
        calibration=DEFAULT_CALIBRATION,
        seed=flow.seed,
        workload="http",
        installation=heterogeneity.variant_installation(
            spec.gfw_variant, flow.vantage.name, flow.website.name
        ),
        shared_censor=shared,
    )
    batch.adopt(scenario.clock, flow_id=flow.index)
    shared.graft(scenario, flow.index)
    intang: Optional[INTANG] = None
    if flow.strategy_id is not None and flow.strategy_id != "none":
        intang = attach_intang(
            scenario, flow.strategy_id, LazyRandom(flow.seed ^ 0x5EED)
        )
    timing: Dict[str, float] = {}
    clock = scenario.clock
    _drift, conn, exchange = start_http_request(
        scenario, flow.sensitive, intang,
        on_done=lambda _exchange: timing.setdefault("verdict", clock.now),
    )
    # Wrap the client's own callbacks to timestamp the flow's sim-time
    # life: established -> start, first parse or close -> verdict.
    prior_established = conn.on_established
    prior_close = conn.on_close

    def _mark_established(c):
        timing.setdefault("start", clock.now)
        prior_established(c)

    def _mark_close(c, reason):
        timing.setdefault("verdict", clock.now)
        prior_close(c, reason)

    conn.on_established = _mark_established
    conn.on_close = _mark_close
    return _FleetFlowContext(
        flow=flow, scenario=scenario, intang=intang, exchange=exchange,
        timing=timing, since=since,
    )


@dataclass
class FleetResult:
    """Order-independent aggregates of one client group
    (:func:`run_fleet_group`) or of a whole run, the :meth:`merge` of its
    groups (:func:`run_fleet`)."""

    spec: FleetSpec
    flows: int = 0
    flow_events: int = 0
    #: label -> outcome tally, labels sorted once merged.
    outcomes: Dict[str, VerdictDistribution] = field(default_factory=dict)
    eviction_false_negatives: int = 0
    blacklist_false_positives: int = 0
    evictions_in_resync: int = 0
    flows_created: int = 0
    flows_evicted: int = 0
    flows_evicted_active: int = 0
    flows_evicted_after_fin: int = 0
    blacklistings: int = 0
    peak_flows_tracked: int = 0
    #: First-byte-to-verdict sim-latency histogram (snapshot shape).
    flow_sim_latency: Dict[str, object] = field(
        default_factory=lambda: _latency_histogram().snapshot()
    )

    @classmethod
    def merge(
        cls, spec: FleetSpec, groups: Sequence[FleetResult]
    ) -> FleetResult:
        """Fold group results field by field: tallies add, the peak
        table occupancy is the largest group's, latency buckets add."""
        merged = cls(spec)
        for f in dataclasses.fields(cls)[1:]:
            values = [getattr(group, f.name) for group in groups]
            if f.name == "outcomes":
                tallies: Dict[str, VerdictDistribution] = {}
                for outcomes in values:
                    for label, tally in outcomes.items():
                        tallies[label] = (
                            tallies.get(label, VerdictDistribution()) + tally
                        )
                value = dict(sorted(tallies.items()))
            elif f.name == "peak_flows_tracked":
                value = max(values)
            elif f.name == "flow_sim_latency":
                value = dict(
                    values[0],
                    counts=[sum(c) for c in zip(*(h["counts"] for h in values))],
                    # fsum, not +=: exact summation makes the merged float
                    # identical under any group permutation.
                    sum=math.fsum(h["sum"] for h in values),
                    count=sum(h["count"] for h in values),
                )
            else:
                value = sum(values)
            setattr(merged, f.name, value)
        return merged

    def success_rate(self, label: str) -> Optional[float]:
        tally = self.outcomes.get(label)
        if tally is None or tally.trials == 0:
            return None
        return tally.success / tally.trials

    def strategy_rates(self) -> Dict[str, float]:
        """Evasion success per strategy label (benign bucket excluded)."""
        rates = {}
        for label in self.outcomes:
            if label == "benign":
                continue
            rate = self.success_rate(label)
            if rate is not None:
                rates[label] = rate
        return rates

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": dataclasses.asdict(self.spec),
            "flows": self.flows,
            "flow_events": self.flow_events,
            "outcomes": {k: list(v) for k, v in self.outcomes.items()},
            "strategy_success": self.strategy_rates(),
            "eviction_false_negatives": self.eviction_false_negatives,
            "blacklist_false_positives": self.blacklist_false_positives,
            "evictions_in_resync": self.evictions_in_resync,
            "flows_created": self.flows_created,
            "flows_evicted": self.flows_evicted,
            "flows_evicted_active": self.flows_evicted_active,
            "flows_evicted_after_fin": self.flows_evicted_after_fin,
            "blacklistings": self.blacklistings,
            "peak_flows_tracked": self.peak_flows_tracked,
            "flow_sim_latency": latency_summary(
                {"histograms": {"latency": self.flow_sim_latency}}
            )["latency"],
        }


def _dump_flow_anomaly(
    anomaly: str,
    ctx: "_FleetFlowContext",
    shared: SharedGFWState,
    extra_context: Dict[str, object],
) -> None:
    """Dump one anomalous flow: ring of its events + snapshots.

    Must run *before* the scenario is released — the dump summarizes
    its sniffed packets.
    """
    flow = ctx.flow
    scenario = ctx.scenario

    def snapshots() -> Dict[str, object]:
        tcbs = {}
        for position, table in enumerate(shared.flow_tables):
            for key, entry in table.items():
                if isinstance(key, tuple) and key and key[0] == flow.index:
                    tcbs[f"device{position}:{key!r}"] = tcb_summary(entry)
        return {
            "tcbs": tcbs,
            "gfw_packets_at_client": [
                packet_summary(p) for p in scenario.gfw_packets_at_client
            ],
        }

    evicted_key = shared.evicted_keys.get(flow.index)
    get_recorder().dump(
        anomaly,
        since=ctx.since,
        time=scenario.clock.now,
        match=lambda e: flow.index in (
            e.fields.get("flow"), e.fields.get("namespace")
        ),
        context={
            "flow": flow.index,
            "label": flow.label,
            "site": flow.website.name,
            "vantage": flow.vantage.name,
            "evicted_key": repr(evicted_key) if evicted_key else None,
            **extra_context,
        },
        snapshots=snapshots,
    )


def _finalize_flow(
    ctx: _FleetFlowContext,
    shared: SharedGFWState,
    result: FleetResult,
    latencies: Histogram,
) -> Outcome:
    """Classify one finished flow and attribute shared-state errors."""
    scenario = ctx.scenario
    flow = ctx.flow
    resets = scenario.gfw_resets_received()
    outcome = classify(ctx.exchange.got_response, resets)
    _FLEET_FLOWS.inc()
    _OUTCOME_COUNTERS[outcome].inc()
    # First byte to verdict, in simulated seconds.  A flow that never
    # established starts at 0; one that never resolved is charged the
    # full horizon (the honest p99 for a stalled flow).
    started = ctx.timing.get("start", 0.0)
    verdict_time = ctx.timing.get("verdict", scenario.clock.now)
    # Quantized to a dyadic grid (multiples of 2^-20 s, ~1 µs): every
    # observation and every partial sum is then exactly representable,
    # so the histogram's float ``sum`` is identical under any
    # serial/chunked grouping (the telemetry-parity pins).
    latency = round(max(0.0, verdict_time - started) * 1048576.0) / 1048576.0
    _FLEET_LATENCY.observe(latency)
    latencies.observe(latency)
    recorder = get_recorder()
    if recorder.spans_on:
        recorder.add(
            make_span(
                f"flow{flow.index}",
                "flow",
                sim_start=started,
                sim_end=verdict_time,
                attrs={
                    "flow": flow.index,
                    "label": flow.label,
                    "site": flow.website.name,
                    "outcome": outcome.value,
                    "sim_latency": latency,
                },
            )
        )
    if (
        flow.sensitive
        and outcome is Outcome.SUCCESS
        and scenario.gfw_detections() == 0
        and not any(d.missed_detections for d in scenario.gfw_devices)
        and flow.index in shared.evicted_active_flows
    ):
        result.eviction_false_negatives += 1
        _FLEET_EVICTION_FN.inc()
        if recorder.events_on:
            recorder.publish(
                "fleet",
                "eviction_false_negative",
                time=scenario.clock.now,
                flow=flow.index,
                site=flow.website.name,
                strategy=flow.label,
            )
        _dump_flow_anomaly(
            "eviction_false_negative", ctx, shared,
            {"outcome": outcome.value, "strategy": flow.label},
        )
    if not flow.sensitive and resets > 0:
        result.blacklist_false_positives += 1
        _FLEET_BLACKLIST_FP.inc()
        if recorder.events_on:
            recorder.publish(
                "fleet",
                "blacklist_false_positive",
                time=scenario.clock.now,
                flow=flow.index,
                site=flow.website.name,
                resets=resets,
            )
        _dump_flow_anomaly(
            "blacklist_false_positive", ctx, shared,
            {"outcome": outcome.value, "resets": resets},
        )
    release_scenario(scenario)
    return outcome


def _run_wave(
    spec: FleetSpec,
    wave: Sequence[int],
    shared: SharedGFWState,
    result: FleetResult,
    latencies: Histogram,
    labelled: Dict[str, List[Outcome]],
) -> None:
    """Run one wave of flows on one heap, then classify and free them,
    appending each flow's outcome to ``labelled`` under its label.

    The wave's contexts die when this frame returns, so the caller's
    collector pause covers their release too.
    """
    batch = BatchSim()
    contexts: List[_FleetFlowContext] = []
    try:
        for index in wave:
            contexts.append(
                _fleet_flow_setup(spec, flow_spec(spec, index), shared, batch)
            )
        result.flow_events += batch.run(
            [ctx.scenario.calibration.trial_duration for ctx in contexts]
        )
    finally:
        batch.release()
    for ctx in contexts:
        labelled.setdefault(ctx.flow.label, []).append(
            _finalize_flow(ctx, shared, result, latencies)
        )


def run_fleet_group(spec: FleetSpec, group: int) -> FleetResult:
    """Run one client group against its shared censor, wave by wave,
    into a one-group :class:`FleetResult`.

    Pure function of ``(spec, group)``: this is the unit
    :func:`run_fleet` fans out across processes.  The cyclic collector is
    paused for each wave, from its first flow setup until its flows are
    freed, and left as the caller had it between waves and afterwards.
    """
    recorder = get_recorder()
    shared = SharedGFWState(spec, group)
    indices = list(spec.group_indices(group))
    result = FleetResult(spec, flows=len(indices))
    latencies = _latency_histogram()
    labelled: Dict[str, List[Outcome]] = {}
    group_span = recorder.begin(
        f"fleet.group{group}", "sweep", group=group, flows=len(indices)
    )
    for wave_number, start in enumerate(range(0, len(indices), spec.window)):
        wave = indices[start : start + spec.window]
        wave_span = recorder.begin(
            f"wave{wave_number}", "wave", wave=wave_number, flows=len(wave)
        )
        # A wave's trial graphs are acyclic (DESIGN.md §13), so a
        # collector pass inside it could only rescan live scenarios.
        collector_was_enabled = gc.isenabled()
        gc.disable()
        try:
            _run_wave(spec, wave, shared, result, latencies, labelled)
        finally:
            if collector_was_enabled:
                gc.enable()
        shared.end_wave()
        if wave_span is not None:
            # The wave ends when its slowest flow does (sim time).
            recorder.end(
                wave_span,
                sim_end=max(
                    (s["sim_end"] for s in wave_span["children"]),
                    default=0.0,
                ),
            )
    recorder.end(group_span)
    result.outcomes = {
        label: VerdictDistribution.from_outcomes(outcomes)
        for label, outcomes in labelled.items()
    }
    result.evictions_in_resync = shared.evictions_in_resync
    result.flows_created = sum(t.flows_created for t in shared.flow_tables)
    result.flows_evicted = sum(t.flows_evicted for t in shared.flow_tables)
    result.flows_evicted_active = sum(
        t.flows_evicted_active for t in shared.flow_tables
    )
    result.flows_evicted_after_fin = sum(
        t.flows_evicted_after_fin for t in shared.flow_tables
    )
    result.blacklistings = sum(b.total_blacklistings for b in shared.blacklists)
    result.peak_flows_tracked = shared.peak_flows_tracked
    result.flow_sim_latency = latencies.snapshot()
    # The tables' eviction hook is bound to ``shared``, which holds the
    # tables: cut that cycle so the group's censor state is freed by
    # reference counting.
    for table in shared.flow_tables:
        table.on_evict = None
    return result


def run_fleet(
    spec: FleetSpec,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> FleetResult:
    """Run the whole fleet, fanning groups out over ``workers`` processes.

    The fan-out partitions *clients* (whole groups, each with its own
    shared censor), never cells: a group never straddles two
    processes, so shared-state coupling is identical for any worker
    count and the merged result is byte-identical to the serial run
    (telemetry modulo execution counters, like every
    :func:`~repro.experiments.parallel.map_trials` caller).

    ``shards`` is ignored: it is kept only because the frozen
    ``perfbench/workloads.py`` passes ``shards=1`` (DESIGN.md §14).
    """
    del shards
    tasks = [(spec, group) for group in range(spec.groups)]
    results = map_trials(run_fleet_group, tasks, workers=workers)
    return FleetResult.merge(spec, results)


def effectiveness_curve(
    base_spec: FleetSpec,
    sizes: Sequence[int],
    workers: Optional[int] = None,
) -> List[Tuple[int, FleetResult]]:
    """Strategy effectiveness as fleet size sweeps past ``max_flows``.

    Returns ``(fleet_size, FleetResult)`` per point; plotting
    ``strategy_rates()`` against size shows what the paper could never
    measure — how each Table-1 strategy fares once the censor's bounded
    TCB table starts thrashing.
    """
    points: List[Tuple[int, FleetResult]] = []
    for size in sizes:
        spec = replace(base_spec, flows=size)
        points.append((size, run_fleet(spec, workers=workers)))
    return points
