"""The network: paths, hop-by-hop traversal, loss, delay, and injection.

A :class:`Path` joins exactly two endpoints ("client" and "server" ends,
matching the paper's threat model) and carries an ordered set of
:class:`~repro.netsim.path.PathElement` objects at integer hop positions.
Packet traversal is event-driven: each element processes the packet at
the sim time it would physically arrive there, so a GFW reset injected at
hop 8 genuinely races the original packet to the server at hop 14.

Traversal is the simulator's hottest loop, so it is allocation-free per
hop: the path precomputes, per direction, an immutable schedule of
element visits (rebuilt only when elements are added or the route
drifts — counted by the ``netsim.schedule_rebuilds`` metric), and each
in-flight packet rides a single slotted :class:`_Transit` event that is
mutated and re-posted on the clock hop after hop instead of allocating a
closure per hop.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from heapq import heappush
from typing import Dict, List, Optional, Tuple

from repro.netstack.packet import IPPacket
from repro.netsim.node import Endpoint
from repro.netsim.path import (
    Direction,
    InlineBox,
    PathElement,
    ProcessResult,
    Tap,
    Verdict,
)
from repro.netsim.simclock import SimClock
from repro.netsim.trace import TraceRecorder
from repro.telemetry.metrics import get_registry

#: Counts full schedule precomputations.  The no-rebuild-per-packet
#: guarantee is tested against this counter: sending N packets down an
#: unchanged path must not move it.
_SCHEDULE_REBUILDS = get_registry().counter("netsim.schedule_rebuilds")


class Path:
    """A bidirectional multi-hop path between a client and a server.

    ``hop_count`` is the number of routers between the endpoints; elements
    sit at hops ``1 .. hop_count - 1``.  ``base_delay`` is the one-way
    propagation delay, divided evenly across hops.  ``loss_rate`` is the
    probability that a traversal loses the packet at a uniformly chosen
    hop — losing an insertion packet *before* the GFW hop is one of the
    paper's "Failure 2" causes (§3.4), and the hop-position draw models
    exactly that.
    """

    def __init__(
        self,
        client_ip: str,
        server_ip: str,
        hop_count: int = 14,
        base_delay: float = 0.04,
        loss_rate: float = 0.0,
        jitter: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if hop_count < 2:
            raise ValueError("a path needs at least two hops")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be a fraction in [0, 1)")
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.hop_count = hop_count
        self.base_delay = base_delay
        self.loss_rate = loss_rate
        #: Per-segment delay jitter as a fraction of the nominal delay.
        #: Nonzero jitter lets closely spaced packets *reorder* in
        #: flight — endpoint reassembly must cope (and does).
        self.jitter = jitter
        self.name = name or f"{client_ip}<->{server_ip}"
        self.elements: List[PathElement] = []
        self.network: Optional["Network"] = None
        #: (hops ascending, elements ascending, elements descending) or
        #: None when stale; rebuilt lazily by :meth:`_build_schedule`.
        self._schedule: Optional[Tuple[tuple, tuple, tuple]] = None
        self._per_hop_delay = base_delay / hop_count

    # -- construction -------------------------------------------------------
    def add_element(self, element: PathElement) -> PathElement:
        """Attach an in-path box or on-path tap at its ``hop`` position."""
        if not 0 < element.hop < self.hop_count:
            raise ValueError(
                f"element hop {element.hop} outside path (1..{self.hop_count - 1})"
            )
        element.path = self
        self.elements.append(element)
        self.elements.sort(key=lambda item: item.hop)
        self._schedule = None
        return element

    def endpoints(self) -> Tuple[str, str]:
        return (self.client_ip, self.server_ip)

    def direction_from(self, sender_ip: str) -> Direction:
        if sender_ip == self.client_ip:
            return Direction.CLIENT_TO_SERVER
        if sender_ip == self.server_ip:
            return Direction.SERVER_TO_CLIENT
        raise ValueError(f"{sender_ip} is not an endpoint of {self.name}")

    def reset_elements(self) -> None:
        """Clear per-connection state on every element (between trials)."""
        for element in self.elements:
            element.reset_state()

    def clear_elements(self) -> None:
        """Detach every element (scenario teardown)."""
        for element in self.elements:
            element.path = None
        self.elements.clear()
        self._schedule = None

    # -- route dynamics -------------------------------------------------------
    def drift_server_side(self, delta: int) -> None:
        """Lengthen (or shorten) the path beyond the last element.

        Models route changes between the GFW and the server: the client's
        previously measured hop count goes stale, so TTL-limited insertion
        packets may now reach the server (Failure 1) or, with negative
        drift, fall short of the GFW (Failure 2).
        """
        new_count = self.hop_count + delta
        last_element_hop = max((element.hop for element in self.elements), default=0)
        if new_count <= last_element_hop + 0:
            raise ValueError("drift would place the server before an element")
        self.hop_count = new_count
        self._schedule = None
        self._per_hop_delay = self.base_delay / new_count

    def drift_client_side(self, delta: int) -> None:
        """Lengthen (or shorten) the path before the first element.

        All element hop positions shift by ``delta``; models route changes
        between the client and the GFW.
        """
        first_element_hop = min(
            (element.hop for element in self.elements), default=self.hop_count
        )
        if first_element_hop + delta < 1:
            raise ValueError("drift would place an element before the client")
        for element in self.elements:
            element.hop += delta
        self.hop_count += delta
        self._schedule = None
        self._per_hop_delay = self.base_delay / self.hop_count

    # -- traversal --------------------------------------------------------------
    def per_hop_delay(self) -> float:
        return self._per_hop_delay

    def sender_hop(self, direction: Direction) -> int:
        """Hop coordinate (client-based) of the sender for ``direction``."""
        return 0 if direction is Direction.CLIENT_TO_SERVER else self.hop_count

    def destination_hop(self, direction: Direction) -> int:
        return self.hop_count if direction is Direction.CLIENT_TO_SERVER else 0

    def _build_schedule(self) -> Tuple[tuple, tuple, tuple]:
        """Precompute the per-direction visit schedules.

        ``self.elements`` is kept hop-sorted by :meth:`add_element`, but
        drift can perturb nothing about the *order* (hops shift
        uniformly), so one ascending sort is authoritative for both
        directions; the descending view is its reverse.
        """
        forward = tuple(sorted(self.elements, key=lambda item: item.hop))
        hops = tuple(element.hop for element in forward)
        schedule = (hops, forward, tuple(reversed(forward)))
        self._schedule = schedule
        _SCHEDULE_REBUILDS.inc()
        return schedule

    def travel_plan(self, origin_hop: int, direction: Direction) -> Tuple[tuple, int]:
        """The precomputed visit plan from ``origin_hop``: a tuple of
        elements in travel order plus the index of the first one ahead.

        No list is built per packet — the tuples are shared and the start
        index comes from a bisect over the cached hop array.
        """
        schedule = self._schedule
        if schedule is None:
            schedule = self._build_schedule()
        hops, forward, backward = schedule
        if direction is Direction.CLIENT_TO_SERVER:
            return forward, bisect_right(hops, origin_hop)
        return backward, len(hops) - bisect_left(hops, origin_hop)

    def elements_ahead(self, origin_hop: int, direction: Direction) -> List[PathElement]:
        """Elements the packet will meet, in travel order."""
        plan, start = self.travel_plan(origin_hop, direction)
        return list(plan[start:])

    def hop_distance(self, origin_hop: int, target_hop: int) -> int:
        return abs(target_hop - origin_hop)

    def inject(self, tap: Tap, packet: IPPacket, direction: Direction) -> None:
        """Entry point for on-path taps injecting forged packets."""
        if self.network is None:
            raise RuntimeError(f"path {self.name} is not attached to a network")
        packet.meta.setdefault("injected_by", tap.name)
        self.network.launch(self, packet, direction, origin_hop=tap.hop, origin=tap.name)


class _Transit:
    """One packet's in-flight traversal state, reused hop to hop.

    A single slotted event rides the clock for the whole traversal: after
    each element visit :meth:`fire` mutates ``current_hop``/``plan_index``
    and re-posts the same object.  ``cancelled`` is a class attribute —
    transits are never cancelled, and keeping it off the instance saves a
    slot write per packet.

    ``fire`` holds the whole arrival pipeline (TTL/loss accounting,
    element visit, delivery) in one frame: the old
    ``_arrive -> _visit_element -> _post`` chain cost three extra Python
    calls per event, which is real money at paper-sweep packet rates.

    ``fire`` also *fast-forwards*: after an element visit, if the heap
    top is strictly later than this packet's next arrival (and that
    arrival is within the clock's active run horizon), no other event can
    possibly execute in between — so the next leg is processed inline,
    advancing the clock directly instead of a heappush/heappop round
    trip.  Tie-breaking is preserved exactly: an equal-time heap entry
    was necessarily pushed earlier (lower seq) and must fire first, so
    equality suppresses the fast path.
    """

    __slots__ = (
        "network", "path", "packet", "direction", "current_hop",
        "plan", "plan_len", "plan_index", "drop_hop", "origin",
        "target_hop", "distance",
    )

    cancelled = False

    def fire(self) -> None:
        network = self.network
        path = self.path
        packet = self.packet
        direction = self.direction
        trace = network.trace
        clock = network.clock
        queue = clock._queue
        c2s = direction is Direction.CLIENT_TO_SERVER
        current_hop = self.current_hop
        target_hop = self.target_hop
        distance = self.distance
        index = self.plan_index
        plan = self.plan
        plan_len = self.plan_len
        drop_hop = self.drop_hop
        per_hop = path._per_hop_delay
        jitter = path.jitter
        while True:
            # TTL accounting: packet.ttl was the value at current_hop.
            remaining_ttl = packet.ttl - distance
            if remaining_ttl <= 0:
                expiry_hop: Optional[int] = (
                    current_hop + packet.ttl if c2s else current_hop - packet.ttl
                )
            else:
                expiry_hop = None
            if drop_hop is not None and network._hop_reached(
                current_hop, target_hop, drop_hop, direction
            ):
                if expiry_hop is None or network._loss_before_ttl(
                    current_hop, drop_hop, expiry_hop, direction
                ):
                    if trace.enabled:
                        trace.record(
                            clock._now, f"hop{drop_hop}", "drop", packet,
                            direction.value, note="loss",
                        )
                    return
            if expiry_hop is not None:
                if trace.enabled:
                    trace.record(
                        clock._now, f"hop{expiry_hop}", "drop", packet,
                        direction.value, note="ttl-expired",
                    )
                return
            packet.ttl = remaining_ttl
            if index >= plan_len:
                network._deliver(path, packet, direction, self.origin)
                return
            element = plan[index]
            now = clock._now
            if element.is_tap:
                if element.observe_copies or trace.enabled:
                    element.observe(packet.copy(), direction, now)
                else:
                    # Read-only taps (the GFW devices) opt out of the
                    # defensive copy; observation is synchronous, so later
                    # TTL mutation on the live object cannot be seen.
                    element.observe(packet, direction, now)
                if trace.enabled:
                    trace.record(now, element.name, "observe", packet, direction.value)
            else:
                result: ProcessResult = element.process(packet, direction, now)
                verdict = result.verdict
                if verdict is Verdict.DROP:
                    if trace.enabled:
                        trace.record(
                            now, element.name, "drop", packet, direction.value,
                            note="middlebox",
                        )
                    return
                if verdict is Verdict.REPLACE:
                    if trace.enabled:
                        trace.record(
                            now, element.name, "replace", packet, direction.value,
                            note=f"{len(result.packets)} packet(s)",
                        )
                    for replacement in result.packets:
                        clone = _Transit()
                        clone.network = network
                        clone.path = path
                        clone.packet = replacement
                        clone.direction = direction
                        clone.current_hop = element.hop
                        clone.plan = plan
                        clone.plan_len = plan_len
                        clone.plan_index = index + 1
                        clone.drop_hop = drop_hop
                        clone.origin = self.origin
                        network._post(clone)
                    return
                if trace.enabled:
                    trace.record(now, element.name, "forward", packet, direction.value)
            # Advance to the next leg (inlined _post).
            current_hop = element.hop
            index += 1
            if index < plan_len:
                target_hop = plan[index].hop
            elif c2s:
                target_hop = path.hop_count
            else:
                target_hop = 0
            distance = target_hop - current_hop
            if distance < 0:
                distance = -distance
            delay = per_hop * distance
            if jitter > 0.0 and delay > 0.0:
                delay *= 1.0 + network.rng.uniform(-jitter, jitter)
            arrival = clock._now + delay
            if (not queue or queue[0][0] > arrival) and arrival <= clock._run_until:
                # Nothing can execute before this arrival: take the next
                # leg inline instead of a heappush/heappop round trip.
                clock._now = arrival
                continue
            self.current_hop = current_hop
            self.plan_index = index
            self.target_hop = target_hop
            self.distance = distance
            clock._seq += 1
            heappush(queue, (arrival, clock._seq, self))
            return


class Network:
    """Holds hosts and paths and runs packet traversal on the event clock."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        rng: Optional[random.Random] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.rng = rng if rng is not None else random.Random(0)
        # Note: "trace or default" would be wrong — an empty recorder is
        # falsy through its __len__.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.hosts: Dict[str, Endpoint] = {}
        self._paths: Dict[frozenset, Path] = {}
        #: Fast route lookup for the overwhelmingly common one-path
        #: topology (every paper scenario is client<->server); None when
        #: zero or several paths are attached.
        self._single_path: Optional[Path] = None
        #: Packets that arrived for an IP with no registered host.
        self.undeliverable = 0

    # -- topology -----------------------------------------------------------
    def add_host(self, host: Endpoint) -> Endpoint:
        if host.ip in self.hosts:
            raise ValueError(f"duplicate host IP {host.ip}")
        self.hosts[host.ip] = host
        host.network = self
        return host

    def add_path(self, path: Path) -> Path:
        key = frozenset(path.endpoints())
        if key in self._paths:
            raise ValueError(f"duplicate path between {path.endpoints()}")
        self._paths[key] = path
        path.network = self
        self._single_path = path if len(self._paths) == 1 else None
        return path

    def clear(self) -> None:
        """Detach every host and path.  Both point back at this network,
        so a discarded topology is only freed by reference counting once
        the links are cut."""
        for host in self.hosts.values():
            host.network = None
        for path in self._paths.values():
            path.network = None
        self.hosts.clear()
        self._paths.clear()
        self._single_path = None

    def path_between(self, ip_a: str, ip_b: str) -> Path:
        try:
            return self._paths[frozenset((ip_a, ip_b))]
        except KeyError:
            raise KeyError(f"no path between {ip_a} and {ip_b}") from None

    def paths(self) -> List[Path]:
        return list(self._paths.values())

    # -- sending ------------------------------------------------------------
    def send(self, sender: Endpoint, packet: IPPacket) -> None:
        """Called by an endpoint to transmit toward ``packet.dst``."""
        single = self._single_path
        sender_ip = sender.ip
        if single is not None and sender_ip == single.client_ip and packet.dst == single.server_ip:
            path = single
            direction = Direction.CLIENT_TO_SERVER
        elif single is not None and sender_ip == single.server_ip and packet.dst == single.client_ip:
            path = single
            direction = Direction.SERVER_TO_CLIENT
        else:
            try:
                path = self.path_between(sender_ip, packet.dst)
            except KeyError:
                self.trace.record(
                    self.clock.now, sender.name, "drop", packet, note="no route"
                )
                self.undeliverable += 1
                return
            direction = path.direction_from(sender_ip)
        if self.trace.enabled:
            self.trace.record(
                self.clock.now, sender.name, "send", packet, direction.value
            )
        self.launch(
            path, packet, direction, origin_hop=path.sender_hop(direction),
            origin=sender.name,
        )

    def launch(
        self,
        path: Path,
        packet: IPPacket,
        direction: Direction,
        origin_hop: int,
        origin: str,
    ) -> None:
        """Start event-driven traversal of ``packet`` along ``path``.

        Loss is decided up front by drawing a drop hop; elements before the
        drop hop still see the packet (so the GFW may act on a packet the
        server never receives — a real and exploited asymmetry).
        """
        drop_hop: Optional[int] = None
        if path.loss_rate > 0 and self.rng.random() < path.loss_rate:
            destination_hop = path.destination_hop(direction)
            low, high = sorted((origin_hop, destination_hop))
            drop_hop = self.rng.randint(low + 1, high)
            if direction is Direction.SERVER_TO_CLIENT:
                # express as the hop (client coordinate) where it dies
                drop_hop = self.rng.randint(low, high - 1)
        plan, start = path.travel_plan(origin_hop, direction)
        transit = _Transit()
        transit.network = self
        transit.path = path
        transit.packet = packet
        transit.direction = direction
        transit.current_hop = origin_hop
        transit.plan = plan
        transit.plan_len = len(plan)
        transit.plan_index = start
        transit.drop_hop = drop_hop
        transit.origin = origin
        self._post(transit)

    # -- traversal engine -----------------------------------------------------
    def _post(self, transit: _Transit) -> None:
        """Compute the next leg (element visit or delivery) and enqueue."""
        path = transit.path
        index = transit.plan_index
        if index < transit.plan_len:
            target_hop = transit.plan[index].hop
        elif transit.direction is Direction.CLIENT_TO_SERVER:
            target_hop = path.hop_count
        else:
            target_hop = 0
        distance = target_hop - transit.current_hop
        if distance < 0:
            distance = -distance
        transit.target_hop = target_hop
        transit.distance = distance
        delay = path._per_hop_delay * distance
        if path.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.rng.uniform(-path.jitter, path.jitter)
        # Inlined SimClock.post: one call per traversal leg adds up at
        # paper-sweep packet rates, and this module is the clock's peer in
        # the engine (the entry ordering contract lives in simclock.py).
        clock = self.clock
        clock._seq += 1
        heappush(clock._queue, (clock._now + delay, clock._seq, transit))

    def _hop_reached(
        self, current_hop: int, target_hop: int, probe_hop: int, direction: Direction
    ) -> bool:
        """Was ``probe_hop`` strictly between current and target (inclusive)?"""
        low, high = sorted((current_hop, target_hop))
        return low < probe_hop <= high if direction is Direction.CLIENT_TO_SERVER else low <= probe_hop < high

    def _loss_before_ttl(
        self,
        current_hop: int,
        drop_hop: int,
        expiry_hop: Optional[int],
        direction: Direction,
    ) -> bool:
        if expiry_hop is None:
            return True
        if direction is Direction.CLIENT_TO_SERVER:
            return drop_hop <= expiry_hop
        return drop_hop >= expiry_hop

    def _deliver(
        self, path: Path, packet: IPPacket, direction: Direction, origin: str
    ) -> None:
        destination_ip = (
            path.server_ip
            if direction is Direction.CLIENT_TO_SERVER
            else path.client_ip
        )
        host = self.hosts.get(destination_ip)
        if host is None:
            self.undeliverable += 1
            self.trace.record(
                self.clock.now, destination_ip, "drop", packet, direction.value,
                note="no such host",
            )
            return
        if self.trace.enabled:
            self.trace.record(
                self.clock.now, host.name, "deliver", packet, direction.value
            )
        host.handle_packet(packet, self.clock.now)

    # -- convenience ----------------------------------------------------------
    def run(self, duration: float = 10.0) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.clock.run_for(duration)
