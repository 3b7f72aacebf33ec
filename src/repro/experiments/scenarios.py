"""Scenario builders: assemble Fig. 1's threat model as a live topology.

One scenario = one client (a vantage point) + one target (a website,
resolver, Tor bridge, or VPN server) joined by a multi-hop path carrying
the vantage's client-side middleboxes (Table 2) and a GFW installation
whose composition (device generations, reassembly quirks, NB3 coin) is
drawn from the :class:`~repro.experiments.calibration.Calibration`.

Scenarios are cheap, disposable objects: the experiment runner builds a
fresh one per trial, which both isolates trials (no 90-second blacklist
bleed) and re-draws the per-installation behaviour coins — matching the
paper's observation that GFW behaviour is consistent within a period but
varies across periods.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace as dataclass_replace
from functools import lru_cache
from typing import Any, Dict, List, Optional

from repro.netstack.fragment import OverlapPolicy
from repro.netstack.packet import IPPacket
from repro.netsim.network import Network, Path
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.netsim.trace import TraceRecorder
from repro.tcp.profiles import profile_by_name
from repro.tcp.stack import TCPHost
from repro.middlebox.boxes import StatefulFirewallBox
from repro.gfw.active_prober import ActiveProber
from repro.gfw.cluster import GFWCluster
from repro.gfw.device import GFWDevice
from repro.gfw.dns_poisoner import DNSPoisoner
from repro.gfw.heterogeneity import resolve_route
from repro.gfw.models import (
    GFWConfig,
    evolved_config,
    model_variant_configs,
    old_config,
)
from repro.apps.http import HTTPServer
from repro.apps.dns import DNSTcpResolver, DNSUdpResolver
from repro.apps.tor import TorBridge
from repro.apps.udp import UDPHost
from repro.apps.vpn import OpenVPNServer
from repro.core.env import env_flag, env_int
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.vantage import VantagePoint
from repro.experiments.websites import Resolver, Website
from repro.telemetry.metrics import get_registry

#: Hop index where the vantage provider's equipment sits.
CLIENT_MIDDLEBOX_HOP = 2
#: Hop index for optional stateful firewalls (client side, past the NAT).
FIREWALL_HOP = 3

#: The real answer our simulated resolvers return for censored domains.
HONEST_DNS_ANSWER = "104.16.100.29"


@dataclass
class Scenario:
    """A fully wired client/GFW/server topology for one trial."""

    clock: SimClock
    network: Network
    rng: random.Random
    vantage: VantagePoint
    calibration: Calibration
    path: Path
    client: Host
    server: Host
    client_tcp: TCPHost
    server_tcp: TCPHost
    gfw_devices: List[GFWDevice]
    cluster: GFWCluster
    website: Optional[Website] = None
    resolver: Optional[Resolver] = None
    trace: Optional[TraceRecorder] = None
    #: GFW-forged packets that reached the client (set by the sniffer).
    gfw_packets_at_client: List[IPPacket] = field(default_factory=list)
    http_server: Optional[HTTPServer] = None
    udp_client: Optional[UDPHost] = None
    udp_server: Optional[UDPHost] = None
    tor_bridge: Optional[TorBridge] = None
    vpn_server: Optional[OpenVPNServer] = None
    #: Keyword arguments :func:`build_scenario` was called with (everything
    #: but ``seed``), kept so :meth:`reset` can replay the build.
    _build_args: Optional[Dict[str, Any]] = None
    #: Free-list key when this scenario came from :func:`acquire_scenario`;
    #: :func:`release_scenario` uses it to return the scenario to its cell.
    _pool_key: Optional[tuple] = None

    def run(self, duration: Optional[float] = None) -> None:
        self.clock.run_for(duration or self.calibration.trial_duration)

    def apply_route_drift(self) -> Optional[str]:
        """Maybe drift the route (call *after* hop measurement).

        Returns a description of the applied drift, or None.
        """
        probability = (
            self.calibration.route_drift_probability
            if self.vantage.inside_china
            else self.calibration.route_drift_probability_outside
        )
        if self.rng.random() >= probability:
            return None
        choices = (
            self.calibration.drift_choices
            if self.vantage.inside_china
            else self.calibration.outside_drift_choices
        )
        side, delta, _weight = choices[
            _branch(self.rng, [weight for _, _, weight in choices])
        ]
        try:
            if side == "server":
                self.path.drift_server_side(delta)
            else:
                self.path.drift_client_side(delta)
        except ValueError:
            return None  # drift would be geometrically impossible; skip
        return f"{side}{delta:+d}"

    def reset(self, seed: int) -> "Scenario":
        """Rebuild this trial topology for a new seed, reusing the heavy
        pieces (clock, network, hosts, path, TCP stacks) in place.

        Returns a fresh :class:`Scenario` wrapper.  The rebuild replays
        :func:`build_scenario`'s exact RNG draw sequence against reset
        objects, so results are byte-identical to a from-scratch build
        with the same arguments and seed.
        """
        if self._build_args is None:
            raise ValueError(
                "scenario was not created by build_scenario; cannot reset"
            )
        return build_scenario(seed=seed, reuse=self, **self._build_args)

    def gfw_detections(self) -> int:
        return sum(len(device.detections) for device in self.gfw_devices)

    def gfw_resets_received(self) -> int:
        return len(self.gfw_packets_at_client)


def _branch(rng: random.Random, weights: List[float]) -> int:
    """Weighted choice: one ``random()`` scaled by the total, then
    successive subtraction until the roll drops to zero or below.  Float
    rounding can leave the roll positive after the last weight; the last
    index is the answer then."""
    roll = rng.random() * sum(weights)
    for index, weight in enumerate(weights):
        roll -= weight
        if roll <= 0:
            return index
    return len(weights) - 1


def _pick(rng: random.Random, thresholds: tuple) -> int:
    """One ``random()`` against ascending cumulative thresholds: the
    index of the first threshold above the roll, else ``len(thresholds)``."""
    roll = rng.random()
    for index, threshold in enumerate(thresholds):
        if roll < threshold:
            return index
    return len(thresholds)


def _draw_loss_rate(rng: random.Random, calibration: Calibration) -> float:
    if rng.random() < calibration.burst_loss_probability:
        return calibration.burst_loss_rate
    return calibration.base_loss_rate


#: The three installation compositions, indexed by the population pick.
_GFW_GENERATIONS = (("old", "old2"), ("evolved", "old"), ("evolved", "evolved2"))


def _gfw_configs(
    rng: random.Random, calibration: Calibration, vantage: VantagePoint
) -> List[GFWConfig]:
    """Draw the installation composition and shared behaviour quirks."""
    generations = _GFW_GENERATIONS[
        _pick(
            rng,
            (
                calibration.old_model_only_fraction,
                calibration.old_model_only_fraction
                + calibration.both_models_fraction,
            ),
        )
    ]
    # Installation-wide quirk draws (devices at one tap share a version).
    tcp_ooo = (
        OverlapPolicy.LAST_WINS
        if rng.random() < calibration.evolved_tcp_ooo_lastwins_fraction
        else OverlapPolicy.FIRST_WINS
    )
    ignores_noflag = rng.random() < calibration.evolved_ignores_noflag_fraction
    validates_ack = rng.random() < calibration.evolved_validates_ack_fraction
    fin_teardown = rng.random() < calibration.evolved_fin_teardown_fraction
    configs: List[GFWConfig] = []
    for generation in generations:
        if generation.startswith("old"):
            config = old_config(reset_type=1 if generation == "old" else 2)
        else:
            config = evolved_config(
                reset_type=2 if generation == "evolved" else 1
            )
            config.tcp_ooo_policy = tcp_ooo
            config.accepts_no_flag_data = not ignores_noflag
            config.validates_ack_number = validates_ack
            config.fin_tears_down = fin_teardown
            config.resync_on_rst_probability = calibration.resync_on_rst_probability
            config.resync_on_rst_handshake_probability = (
                calibration.resync_on_rst_handshake_probability
            )
        config.miss_probability = calibration.gfw_miss_probability
        config.rules.detect_tor = vantage.tor_filtered
        configs.append(config)
    # Evolved devices must initialize the cluster's NB3 coin, so order
    # them first (old devices never consult it).
    configs.sort(key=lambda cfg: cfg.model != "evolved")
    return configs


@lru_cache(maxsize=64)
def _profile_variant(name: str, ooo_lastwins: bool):
    """Memoized stack-profile lookup (profiles are frozen dataclasses).

    A paper-scale sweep builds millions of scenarios against a handful of
    distinct profile variants; sharing one instance per variant replaces a
    per-trial linear registry scan + dataclass copy with a dict hit.
    """
    profile = profile_by_name(name)
    if ooo_lastwins:
        profile = dataclass_replace(profile, ooo_overlap=OverlapPolicy.LAST_WINS)
    return profile


def _server_profile(website: Optional[Website]):
    if website is None:
        return _profile_variant("linux-4.4", False)
    return _profile_variant(website.server_profile, website.server_ooo_lastwins)


def _path_geometry(
    vantage: VantagePoint,
    rng: random.Random,
    calibration: Calibration,
    hop_count: int,
    gfw_hop: int,
) -> tuple:
    """Inside China the geometry comes from the website; outside China
    the GFW squeezes up against the Chinese server (§7.1)."""
    if vantage.inside_china:
        return hop_count, gfw_hop
    hop_count = hop_count + 6  # transcontinental transit
    gaps = calibration.outside_gfw_server_gap
    gap = gaps[_branch(rng, [weight for _, weight in gaps])][0]
    return hop_count, max(2, hop_count - gap)


def build_scenario(
    vantage: VantagePoint,
    website: Optional[Website] = None,
    resolver: Optional[Resolver] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    workload: str = "http",
    trace: bool = False,
    force_firewall: Optional[bool] = None,
    firewall_teardown_probability: float = 1.0,
    gfw_variant: Optional[str] = None,
    reuse: Optional[Scenario] = None,
) -> Scenario:
    """Build one trial topology.

    ``workload`` is one of ``http``, ``dns``, ``tor``, ``vpn``.  The
    server end is the website (http), the resolver (dns), a Tor bridge,
    or a VPN server.

    ``gfw_variant`` forces the installation to a named model variant from
    :data:`repro.gfw.models.MODEL_VARIANT_FACTORIES` instead of drawing
    the device composition from the calibration's population fractions —
    the conformance harness uses this so a matrix cell's verdict is a
    pure function of (strategy, variant, profile, fault point, seed).

    ``reuse`` hands back a previous scenario for the same endpoints whose
    heavy objects (clock, network, hosts, path, TCP stacks) are reset and
    re-wired in place rather than reallocated.  Both code paths share the
    same draw sequence from ``Random(seed)``, so fresh and reused builds
    are indistinguishable trial-for-trial; everything behavioural
    (middleboxes, firewall, GFW devices, workload apps) is still rebuilt
    per trial, preserving the trial-isolation contract above.
    """
    rng = random.Random(seed)
    if reuse is None:
        clock = SimClock()
        recorder = TraceRecorder(enabled=trace)
        network = Network(
            clock=clock, rng=random.Random(rng.randrange(2**31)), trace=recorder
        )
    else:
        clock = reuse.clock
        clock.reset()
        recorder = reuse.trace
        recorder.reset(enabled=trace)
        network = reuse.network
        network.rng = random.Random(rng.randrange(2**31))
        network.undeliverable = 0

    if workload == "dns":
        if resolver is None:
            raise ValueError("dns workload needs a resolver")
        server_ip = resolver.ip
        hop_count, gfw_hop = resolver.hop_count, resolver.gfw_hop
        server_name = resolver.name
    else:
        if website is None:
            raise ValueError(f"{workload} workload needs a website")
        server_ip = website.ip
        hop_count, gfw_hop = website.hop_count, website.gfw_hop
        server_name = website.name
    hop_count, gfw_hop = _path_geometry(vantage, rng, calibration, hop_count, gfw_hop)

    base_delay = 0.04 if vantage.inside_china else 0.09
    if reuse is None:
        client = network.add_host(Host(vantage.ip, vantage.name))
        server = network.add_host(Host(server_ip, server_name))
        path = Path(
            client_ip=vantage.ip,
            server_ip=server_ip,
            hop_count=hop_count,
            base_delay=base_delay,
            loss_rate=_draw_loss_rate(rng, calibration),
            jitter=calibration.path_jitter,
        )
        network.add_path(path)
    else:
        if reuse.client.ip != vantage.ip or reuse.server.ip != server_ip:
            raise ValueError(
                "reuse scenario endpoints do not match: "
                f"{reuse.client.ip}->{reuse.server.ip} vs {vantage.ip}->{server_ip}"
            )
        client = reuse.client
        server = reuse.server
        client.reset()
        server.reset()
        path = reuse.path
        path.clear_elements()
        path.reconfigure(
            hop_count, base_delay, _draw_loss_rate(rng, calibration),
            jitter=calibration.path_jitter,
        )

    # -- client-side middleboxes (Table 2) --------------------------------
    for box in vantage.middleboxes.build_boxes(
        hop=CLIENT_MIDDLEBOX_HOP, rng=random.Random(rng.randrange(2**31))
    ):
        path.add_element(box)
    firewall_present = (
        force_firewall
        if force_firewall is not None
        else rng.random() < calibration.stateful_firewall_fraction
    )
    if firewall_present:
        path.add_element(
            StatefulFirewallBox(
                name=f"{vantage.name}-fw",
                hop=FIREWALL_HOP,
                teardown_probability=firewall_teardown_probability,
                check_sequences=(
                    rng.random() < calibration.firewall_checks_sequences_fraction
                ),
                rng=random.Random(rng.randrange(2**31)),
            )
        )

    # -- the GFW installation ------------------------------------------------
    cluster = GFWCluster(
        rng=random.Random(rng.randrange(2**31)),
        miss_probability=calibration.gfw_miss_probability,
    )
    censored_path = resolver.censored_path if resolver is not None else True
    devices: List[GFWDevice] = []
    if censored_path:
        prober = ActiveProber(clock)
        poisoner = DNSPoisoner()
        if gfw_variant is not None:
            # Forced installation: exact configs, no population draws.
            # Fresh instances per build, so per-scenario mutation below
            # cannot leak across matrix cells.  The heterogeneous
            # pseudo-variant resolves to one concrete member variant per
            # (vantage, target) route — a pure crc32 function with no
            # RNG draws, so pooled scenario reuse rebuilds the same
            # installation and the build draw order is untouched.
            member_variant, temporal_profile = resolve_route(
                gfw_variant, vantage.name, server_name
            )
            configs = model_variant_configs(member_variant)
            for config in configs:
                config.miss_probability = calibration.gfw_miss_probability
                config.rules.detect_tor = vantage.tor_filtered
                if temporal_profile is not None:
                    config.temporal = temporal_profile
                    config.sim_hour = calibration.sim_hour
                    # Blacklist TTL drift (Ensafi): scale the 90 s
                    # window per route.
                    config.blacklist_duration = (
                        config.blacklist_duration
                        * temporal_profile.ttl_factor
                    )
        else:
            configs = _gfw_configs(rng, calibration, vantage)
        for index, config in enumerate(configs):
            device = GFWDevice(
                name=f"gfw-{config.model}-t{config.reset_type}-{index}",
                hop=gfw_hop,
                config=config,
                clock=clock,
                rng=random.Random(rng.randrange(2**31)),
                cluster=cluster,
            )
            device.dns_poisoner = poisoner
            device.active_prober = prober
            path.add_element(device)
            devices.append(device)

    # -- endpoint stacks ---------------------------------------------------------
    client_profile = _profile_variant("linux-4.4", False)
    server_profile = _server_profile(website)
    if reuse is None:
        client_tcp = TCPHost(
            client, clock, profile=client_profile,
            rng=random.Random(rng.randrange(2**31)),
        )
        server_tcp = TCPHost(
            server, clock, profile=server_profile,
            rng=random.Random(rng.randrange(2**31)),
        )
    else:
        client_tcp = reuse.client_tcp
        client_tcp.reset(
            profile=client_profile, rng=random.Random(rng.randrange(2**31))
        )
        server_tcp = reuse.server_tcp
        server_tcp.reset(
            profile=server_profile, rng=random.Random(rng.randrange(2**31))
        )

    scenario = Scenario(
        clock=clock,
        network=network,
        rng=rng,
        vantage=vantage,
        calibration=calibration,
        path=path,
        client=client,
        server=server,
        client_tcp=client_tcp,
        server_tcp=server_tcp,
        gfw_devices=devices,
        cluster=cluster,
        website=website,
        resolver=resolver,
        trace=recorder,
        _build_args=dict(
            vantage=vantage,
            website=website,
            resolver=resolver,
            calibration=calibration,
            workload=workload,
            trace=trace,
            force_firewall=force_firewall,
            firewall_teardown_probability=firewall_teardown_probability,
            gfw_variant=gfw_variant,
        ),
    )

    # -- workload --------------------------------------------------------------
    if workload == "http":
        scenario.http_server = HTTPServer(server_tcp)
    elif workload == "dns":
        zone = _censored_zone()
        scenario.udp_server = UDPHost(server)
        DNSUdpResolver(scenario.udp_server, zone)
        DNSTcpResolver(server_tcp, zone)
        scenario.udp_client = UDPHost(client)
    elif workload == "tor":
        scenario.tor_bridge = TorBridge(server_tcp)
        for device in devices:
            if device.active_prober is not None:
                device.active_prober.bridge_oracle = scenario.tor_bridge.answers_probe
    elif workload == "vpn":
        scenario.vpn_server = OpenVPNServer(server_tcp)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # -- measurement sniffer: GFW-forged packets reaching the client ------------
    def sniff(packet: IPPacket, now: float) -> bool:
        meta = packet.meta
        if meta:  # ordinary traffic carries no metadata — skip the lookups
            origin = str(meta.get("origin", ""))
            if origin.startswith("gfw") and packet.is_tcp and packet.tcp.is_rst:
                scenario.gfw_packets_at_client.append(packet)
        return False

    client.register_handler(sniff, prepend=True)
    return scenario


#: Pooled scenarios keyed by endpoint identity — the only build inputs the
#: reuse fast path cannot re-draw or rebuild.  Everything else (calibration
#: coins, middlebox composition, GFW installation, workload apps) is derived
#: from the seed per build, so two calls with the same key but different
#: seeds or workloads still reuse one set of heavy objects.
#:
#: Each key maps to a *free list* of idle scenarios: batched execution
#: needs several live scenarios per cell simultaneously (one per trial in
#: the window), so the pool stacks them instead of keeping one.  Keys are
#: LRU-ordered; the total scenario count is bounded by
#: ``REPRO_SCENARIO_POOL_MAX`` (a 792-cell conformance sweep would
#: otherwise keep every cell's topology alive forever).
_SCENARIO_POOL: "OrderedDict[tuple, List[Scenario]]" = OrderedDict()
#: Default total-scenario cap; override with REPRO_SCENARIO_POOL_MAX.
_SCENARIO_POOL_DEFAULT_MAX = 256
#: Total scenarios currently pooled across all keys.
_pool_count = 0

_SCENARIOS_BUILT = get_registry().counter("scenario.built")
_SCENARIOS_REUSED = get_registry().counter("scenario.reused")
_SCENARIOS_EVICTED = get_registry().counter("scenario.evicted")


def _pool_limit() -> int:
    return env_int("REPRO_SCENARIO_POOL_MAX", _SCENARIO_POOL_DEFAULT_MAX, minimum=0)


def release_scenario(scenario: Scenario) -> None:
    """Return an idle scenario to its cell's free list.

    Evicts least-recently-used entries (oldest key first) once the total
    pooled count exceeds ``REPRO_SCENARIO_POOL_MAX``; evictions are
    counted by the ``scenario.evicted`` telemetry counter.  Scenarios
    without a pool key (fresh builds taken outside :func:`acquire_scenario`)
    are dropped silently.
    """
    global _pool_count
    key = scenario._pool_key
    if key is None:
        return
    free = _SCENARIO_POOL.get(key)
    if free is None:
        _SCENARIO_POOL[key] = [scenario]
    else:
        free.append(scenario)
        _SCENARIO_POOL.move_to_end(key)
    _pool_count += 1
    limit = _pool_limit()
    while _pool_count > limit and _SCENARIO_POOL:
        oldest_key, oldest_free = next(iter(_SCENARIO_POOL.items()))
        oldest_free.pop(0)
        if not oldest_free:
            del _SCENARIO_POOL[oldest_key]
        _pool_count -= 1
        _SCENARIOS_EVICTED.inc()


def acquire_scenario(
    vantage: VantagePoint,
    website: Optional[Website] = None,
    resolver: Optional[Resolver] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    workload: str = "http",
    trace: bool = False,
    force_firewall: Optional[bool] = None,
    firewall_teardown_probability: float = 1.0,
    gfw_variant: Optional[str] = None,
    lease: bool = False,
) -> Scenario:
    """:func:`build_scenario`, but reusing pooled topology objects per cell.

    Behaviourally identical to a fresh build: reuse replays the exact RNG
    draw sequence against reset objects, so for a fixed seed the reused
    and freshly-built scenarios produce byte-identical trial results.
    Falls back to plain builds when tracing is requested (traced trials
    are for debugging; keep them maximally isolated) or when the
    ``REPRO_SCENARIO_REUSE`` knob is off.  The pool is per-process, so
    parallel sweeps (``REPRO_WORKERS``) reuse within each worker.

    By default the scenario is returned to the free list immediately (a
    serial trial finishes with it before the next acquire can pop it).
    ``lease=True`` keeps it checked out — batched execution leases a whole
    window of scenarios at once and hands each back via
    :func:`release_scenario` when its trial is finalized.
    """
    target = resolver if workload == "dns" else website
    if trace or target is None or not env_flag("REPRO_SCENARIO_REUSE", True):
        _SCENARIOS_BUILT.inc()
        return build_scenario(
            vantage,
            website=website,
            resolver=resolver,
            calibration=calibration,
            seed=seed,
            workload=workload,
            trace=trace,
            force_firewall=force_firewall,
            firewall_teardown_probability=firewall_teardown_probability,
            gfw_variant=gfw_variant,
        )
    global _pool_count
    key = (vantage.ip, vantage.name, target.ip, target.name)
    free = _SCENARIO_POOL.get(key)
    if free:
        pooled = free.pop()
        if not free:
            del _SCENARIO_POOL[key]
        _pool_count -= 1
        _SCENARIOS_REUSED.inc()
    else:
        pooled = None
        _SCENARIOS_BUILT.inc()
    scenario = build_scenario(
        vantage,
        website=website,
        resolver=resolver,
        calibration=calibration,
        seed=seed,
        workload=workload,
        trace=trace,
        force_firewall=force_firewall,
        firewall_teardown_probability=firewall_teardown_probability,
        gfw_variant=gfw_variant,
        reuse=pooled,
    )
    scenario._pool_key = key
    if not lease:
        # Mirror the historical contract: the scenario sits in the pool
        # while its (strictly serial) trial runs on it.
        release_scenario(scenario)
    return scenario


def clear_scenario_pool() -> None:
    """Drop all pooled scenarios (tests and benchmarks)."""
    global _pool_count
    _SCENARIO_POOL.clear()
    _pool_count = 0


def scenario_pool_size() -> int:
    """Total idle scenarios currently pooled (tests and diagnostics)."""
    return _pool_count


@lru_cache(maxsize=1)
def _censored_zone() -> dict:
    """The honest zone, built once: resolvers copy it on construction."""
    from repro.gfw.rules import DEFAULT_POISONED_DOMAINS

    return {domain: HONEST_DNS_ANSWER for domain in DEFAULT_POISONED_DOMAINS}
