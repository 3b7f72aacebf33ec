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
from dataclasses import dataclass, field, replace as dataclass_replace
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Set

from repro.netstack.fragment import OverlapPolicy
from repro.netstack.packet import IPPacket
from repro.netsim.network import Network, Path
from repro.netsim.node import Host
from repro.netsim.path import Direction
from repro.netsim.simclock import SimClock
from repro.netsim.trace import TraceRecorder
from repro.tcp.profiles import profile_by_name
from repro.tcp.stack import TCPHost
from repro.tcp.tcb import TCPState
from repro.middlebox.boxes import StatefulFirewallBox
from repro.gfw.active_prober import ActiveProber
from repro.gfw.cluster import GFWCluster
from repro.gfw.device import GFWDevice
from repro.gfw.dns_poisoner import DNSPoisoner
from repro.gfw.models import Installation, installation_configs
from repro.apps.http import HTTPServer
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.vantage import VantagePoint
from repro.experiments.websites import Resolver, Website
from repro.lazyrandom import LazyRandom
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:
    from repro.apps.tor import TorBridge
    from repro.apps.udp import UDPHost

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
    #: Their reset kinds (``type1``, ``type2``), kept by the sniffer as
    #: they arrive; the Failure-2 diagnosis names these.
    reset_kinds: Set[str] = field(default_factory=set)
    #: Armed by ``runner.run_http_trial``, which keeps only the trial
    #: record: the sniffer and :meth:`response_done` end the run once
    #: :meth:`record_final` holds.
    stop_at_verdict: bool = False
    #: Set when that stop ended the run before its horizon.
    stopped_at_verdict: bool = False
    #: Set by :meth:`response_done` once the HTTP response is complete.
    response_complete: bool = False
    http_server: Optional[HTTPServer] = None
    udp_client: Optional[UDPHost] = None
    udp_server: Optional[UDPHost] = None
    tor_bridge: Optional[TorBridge] = None
    #: Set once the scenario is handed back (:func:`release_scenario`);
    #: a second release is a bug.
    _released: bool = False

    def run(self, duration: Optional[float] = None) -> None:
        self.clock.run_for(
            self.calibration.trial_duration if duration is None else duration
        )

    def record_final(self) -> bool:
        """Whether nothing later in the run can change the HTTP trial's
        record: its outcome (``runner.classify``), ``detections`` and the
        reset kind set behind the diagnosis.  It holds in two situations.

        **Failure 2.**  A GFW reset has reached the client, so the outcome
        is irrevocable, and every GFW device is settled:

        - a device that latched its verdict for the flow (a detection or
          a cluster miss; ``flow.punished`` allows one per flow) keeps
          ``detections`` final.  If it injected a reset kind the client
          does not hold, that kind must no longer be able to arrive: the
          device is type 1 (one volley per punished flow, no blacklist)
          and none of its resets is still queued toward the client.  A
          type-2 device's blacklist re-injects, so it keeps blocking;
        - a device that has not latched must be inert: no TCB, no pending
          fragments, TCBs opened only on a pure SYN, the client connection
          CLOSED and no client packet queued, so it can never open a TCB.
          An evolved device opens one on a SYN/ACK (NB1), so it blocks.

        **Success.**  The response is complete (:meth:`response_done`), no
        GFW reset has reached the client, and no device can see
        believed-client payload again: no device has injected anything or
        holds a blacklist entry, a reversed TCB (its believed client is
        not the client) or pending IP fragments; no client segment with
        payload is unacked; and no client-sent packet is still queued
        (insertions delayed by jitter included).  So no detection, volley
        or reset can follow.
        """
        if self.gfw_packets_at_client:
            return self._failure2_final()
        return self.response_complete and self._success_final()

    def _failure2_final(self) -> bool:
        kinds = self.reset_kinds
        for device in self.gfw_devices:
            if device.detections or device.missed_detections:
                reset_type = device.config.reset_type
                if (
                    device.resets_injected
                    and f"type{reset_type}" not in kinds
                    and (
                        reset_type != 1
                        or self.network.queued(
                            device.name, Direction.SERVER_TO_CLIENT
                        )
                    )
                ):
                    return False
            elif not self._inert(device):
                return False
        return True

    def _inert(self, device: GFWDevice) -> bool:
        if (
            len(device.flows)
            or device._fragments.pending_count()
            or device.config.creates_tcb_on_synack
        ):
            return False
        for connection in self.client_tcp.connections.values():
            if connection.tcb.state is not TCPState.CLOSED:
                return False
        return not self.network.queued(
            self.client.name, Direction.CLIENT_TO_SERVER
        )

    def _success_final(self) -> bool:
        client_ip = self.client.ip
        for device in self.gfw_devices:
            if (
                device.resets_injected
                or device.forged_synacks_injected
                or len(device.blacklist)
                or device._fragments.pending_count()
            ):
                return False
            for flow in device.flows.values():
                if flow.believed_client[0] != client_ip:
                    return False
        for connection in self.client_tcp.connections.values():
            for entry in connection._unacked:
                if entry["segment"].payload:
                    return False
        return not self.network.queued(
            self.client.name, Direction.CLIENT_TO_SERVER
        )

    def stop_if_final(self) -> None:
        """End the run at this instant if the stop is armed and the
        record is final."""
        if self.stop_at_verdict and self.record_final():
            self.stopped_at_verdict = True
            # Lowering the live horizon ends this trial's run after this
            # instant.
            self.clock._run_until = self.clock._now

    def response_done(self, _exchange: object) -> None:
        """``HTTPClient.get``'s ``on_done``: the response is complete."""
        self.response_complete = True
        self.stop_if_final()

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

    def reset(self, seed: int) -> None:
        """No-op; kept only because ``perfbench/`` names it.

        Scenarios are never rebuilt in place: every trial gets a fresh
        :func:`build_scenario`.  ``perfbench/layertrace.BOUNDARIES``
        still wraps this method, so the name stays until that file
        drops it.
        """

    def dispose(self) -> None:
        """Cut this scenario's back-references so its whole object graph
        is freed by reference counting once dropped.

        Drops everything the trial hung on the topology: queued events,
        host handlers and egress filters (stacks, sniffer, INTANG),
        connections and listeners, UDP sockets, path elements, the
        network's hosts and path, and this wrapper's references to the
        trial's devices and apps.  Several of these point back at the
        topology (a stack's handler at the stack, a listener's
        application at its stack, an element at its path), so cutting
        them lets the trial's objects be freed without the cyclic
        collector.  Read whatever the trial left on the scenario first.
        """
        self.clock.reset()
        self.client.clear()
        self.server.clear()
        self.client_tcp.clear()
        self.server_tcp.clear()
        for udp in (self.udp_client, self.udp_server):
            if udp is not None:
                udp.clear()
        self.path.clear_elements()
        self.network.clear()
        self.gfw_devices = []
        self.gfw_packets_at_client = []
        self.http_server = self.tor_bridge = None
        self.udp_client = self.udp_server = None

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
#: Evolved devices come first in each: they draw the cluster's NB3 coin,
#: which old devices never consult.
_GFW_GENERATIONS = (("old", "old2"), ("evolved", "old"), ("evolved", "evolved2"))


def draw_installation(
    rng: random.Random, calibration: Calibration
) -> Installation:
    """Draw the installation composition and shared behaviour quirks
    (devices at one tap share a version): five ``random()`` calls."""
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
    # Keyword arguments evaluate left to right: the draw order is fixed.
    return Installation(
        generations=generations,
        tcp_ooo_policy=(
            OverlapPolicy.LAST_WINS
            if rng.random() < calibration.evolved_tcp_ooo_lastwins_fraction
            else OverlapPolicy.FIRST_WINS
        ),
        accepts_no_flag_data=(
            rng.random() >= calibration.evolved_ignores_noflag_fraction
        ),
        validates_ack_number=(
            rng.random() < calibration.evolved_validates_ack_fraction
        ),
        fin_tears_down=rng.random() < calibration.evolved_fin_teardown_fraction,
        resync_on_rst_probability=calibration.resync_on_rst_probability,
        resync_on_rst_handshake_probability=(
            calibration.resync_on_rst_handshake_probability
        ),
    )


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
    installation: Optional[Installation] = None,
    shared_censor: Optional[object] = None,
) -> Scenario:
    """Build one trial topology.

    ``workload`` is one of ``http``, ``dns``, ``tor``, ``vpn``.  The
    server end is the website (http), the resolver (dns), a Tor bridge,
    or a VPN server.

    ``installation`` is the GFW installation on the path; ``None``
    draws it from the calibration (:func:`draw_installation`).  A given
    one makes no draws — the conformance harness passes a named
    variant's (:func:`repro.gfw.heterogeneity.variant_installation`) so
    a matrix cell's verdict is a pure function of (strategy, variant,
    profile, fault point, seed).

    ``shared_censor`` (a fleet group's ``SharedGFWState``; needs a
    variant ``installation``) builds the devices on the shared state
    its ``installation(installation.variant)`` returns, a
    :class:`~repro.gfw.cluster.SharedInstallation`, instead of on a
    private cluster, flow tables, blacklists and blocked-IP sets.
    """
    rng = random.Random(seed)
    clock = SimClock()
    recorder = TraceRecorder(enabled=trace)
    network = Network(
        clock=clock, rng=LazyRandom(rng.randrange(2**31)), trace=recorder
    )

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

    client = network.add_host(Host(vantage.ip, vantage.name))
    server = network.add_host(Host(server_ip, server_name))
    path = Path(
        client_ip=vantage.ip,
        server_ip=server_ip,
        hop_count=hop_count,
        base_delay=0.04 if vantage.inside_china else 0.09,
        loss_rate=_draw_loss_rate(rng, calibration),
        jitter=calibration.path_jitter,
    )
    network.add_path(path)

    # -- client-side middleboxes (Table 2) --------------------------------
    for box in vantage.middleboxes.build_boxes(
        hop=CLIENT_MIDDLEBOX_HOP, rng=LazyRandom(rng.randrange(2**31))
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
                rng=LazyRandom(rng.randrange(2**31)),
            )
        )

    # -- the GFW installation ------------------------------------------------
    censored_path = resolver.censored_path if resolver is not None else True
    # Drawn for a shared installation too, so every later stream of the
    # root generator is the same either way.
    cluster_seed = rng.randrange(2**31)
    if shared_censor is None:
        cluster = GFWCluster(
            rng=LazyRandom(cluster_seed),
            miss_probability=calibration.gfw_miss_probability,
        )
    elif installation is None or installation.variant is None or not censored_path:
        raise ValueError(
            "a shared censor needs a variant installation on a censored path"
        )
    devices: List[GFWDevice] = []
    if censored_path:
        prober = ActiveProber(clock)
        poisoner = DNSPoisoner()
        if installation is None:
            installation = draw_installation(rng, calibration)
        configs = installation_configs(
            installation, vantage.tor_filtered, calibration.sim_hour
        )
        positions: tuple = ((None, None, None),) * len(configs)
        if shared_censor is not None:
            cluster, positions = shared_censor.installation(installation.variant)
            if len(positions) != len(configs):
                raise ValueError(
                    f"shared installation has {len(positions)} device "
                    f"positions, variant {installation.variant!r} "
                    f"{len(configs)}"
                )
        for index, config in enumerate(configs):
            flows, blacklist, blocked_ips = positions[index]
            device = GFWDevice(
                name=f"gfw-{config.model}-t{config.reset_type}-{index}",
                hop=gfw_hop,
                config=config,
                clock=clock,
                rng=LazyRandom(rng.randrange(2**31)),
                cluster=cluster,
                flows=flows,
                blacklist=blacklist,
                blocked_ips=blocked_ips,
            )
            device.dns_poisoner = poisoner
            device.active_prober = prober
            path.add_element(device)
            devices.append(device)

    # -- endpoint stacks ---------------------------------------------------------
    client_tcp = TCPHost(
        client, clock, profile=_profile_variant("linux-4.4", False),
        rng=LazyRandom(rng.randrange(2**31)),
    )
    server_tcp = TCPHost(
        server, clock, profile=_server_profile(website),
        rng=LazyRandom(rng.randrange(2**31)),
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
    )

    # -- workload: each non-HTTP workload imports its own apps ------------------
    if workload == "http":
        scenario.http_server = HTTPServer(server_tcp)
    elif workload == "dns":
        from repro.apps.dns import DNSTcpResolver, DNSUdpResolver
        from repro.apps.udp import UDPHost

        zone = _censored_zone()
        scenario.udp_server = UDPHost(server)
        DNSUdpResolver(scenario.udp_server, zone)
        DNSTcpResolver(server_tcp, zone)
        scenario.udp_client = UDPHost(client)
    elif workload == "tor":
        from repro.apps.tor import TorBridge

        scenario.tor_bridge = TorBridge(server_tcp)
        for device in devices:
            if device.active_prober is not None:
                device.active_prober.bridge_oracle = scenario.tor_bridge.answers_probe
    elif workload == "vpn":
        from repro.apps.vpn import OpenVPNServer

        # Kept alive by its listener on the server stack.
        OpenVPNServer(server_tcp)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # -- measurement sniffer: GFW-forged packets reaching the client ------------
    def sniff(packet: IPPacket, now: float) -> bool:
        meta = packet.meta
        if meta:  # ordinary traffic carries no metadata — skip the lookups
            origin = str(meta.get("origin", ""))
            if origin.startswith("gfw") and packet.is_tcp and packet.tcp.is_rst:
                scenario.gfw_packets_at_client.append(packet)
                scenario.reset_kinds.add(origin.replace("gfw-", ""))
                if scenario.stop_at_verdict:  # never armed in fleet waves
                    scenario.stop_if_final()
        return False

    client.register_handler(sniff, prepend=True)
    return scenario


_SCENARIOS_BUILT = get_registry().counter("scenario.built")


def acquire_scenario(*args: object, **kwargs: object) -> Scenario:
    """Lease a trial topology: a fresh :func:`build_scenario` of the
    same arguments, counted by the ``scenario.built`` telemetry counter.

    The caller owns the scenario until it hands it back with
    :func:`release_scenario`.
    """
    _SCENARIOS_BUILT.inc()
    return build_scenario(*args, **kwargs)  # type: ignore[arg-type]


def release_scenario(scenario: Scenario) -> None:
    """Hand a finished scenario back: :meth:`Scenario.dispose` frees its
    object graph.  Read whatever the trial left on the scenario first.

    Raises ``RuntimeError`` on a second release of the same scenario: a
    second owner still holding it is a bug.
    """
    if scenario._released:
        raise RuntimeError(
            f"scenario {scenario.client.ip}->{scenario.server.ip} released twice"
        )
    scenario._released = True
    scenario.dispose()


def scenario_pool_size() -> int:
    """Always ``0``; kept only because ``perfbench/`` names it.

    No scenario outlives its trial, so nothing is ever pooled.
    """
    return 0


@lru_cache(maxsize=1)
def _censored_zone() -> dict:
    """The honest zone, built once: resolvers copy it on construction."""
    from repro.gfw.rules import DEFAULT_POISONED_DOMAINS

    return {domain: HONEST_DNS_ANSWER for domain in DEFAULT_POISONED_DOMAINS}
