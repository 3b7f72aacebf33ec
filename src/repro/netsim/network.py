"""The network: paths, hop-by-hop traversal, loss, delay, and injection.

A :class:`Path` joins exactly two endpoints ("client" and "server" ends,
matching the paper's threat model) and carries an ordered set of
:class:`~repro.netsim.path.PathElement` objects at integer hop positions;
a :class:`Network` holds exactly one path, built with its trial and
dropped with it.  Packet traversal is event-driven: each element
processes the packet at the sim time it would physically arrive there,
so a GFW reset injected at hop 8 genuinely races the original packet to
the server at hop 14.

Traversal is the simulator's hottest loop, so it is allocation-free per
hop: the path precomputes, per direction, an immutable schedule of
element visits (rebuilt only when elements are added or the route
drifts — counted by the ``netsim.schedule_rebuilds`` metric), and each
in-flight run of packets (those that share a leg and an instant, see
:class:`_Transit`) rides a single slotted event that is mutated and
re-posted on the clock hop after hop instead of allocating a closure per
hop.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from heapq import heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netstack.packet import IPPacket
from repro.netsim.node import Endpoint
from repro.netsim.path import Direction, PathElement, ProcessResult, Verdict
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
        self.name = f"{client_ip}<->{server_ip}"
        self.elements: List[PathElement] = []
        self.network: Optional["Network"] = None
        #: (hops ascending, elements ascending, elements descending,
        #: client's first leg, server's first leg) or None when stale;
        #: rebuilt lazily by :meth:`_build_schedule`.
        self._schedule: Optional[Tuple[tuple, tuple, tuple, tuple, tuple]] = None
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
    def destination_hop(self, direction: Direction) -> int:
        return self.hop_count if direction is Direction.CLIENT_TO_SERVER else 0

    def _build_schedule(self) -> Tuple[tuple, tuple, tuple, tuple, tuple]:
        """Precompute the per-direction visit schedules and end legs.

        ``self.elements`` is kept hop-sorted by :meth:`add_element`, but
        drift can perturb nothing about the *order* (hops shift
        uniformly), so one ascending sort is authoritative for both
        directions; the descending view is its reverse.  The last two
        entries are the first legs of a packet sent by the client and by
        the server (see :meth:`leg`): every endpoint send reads one, so
        it is worked out once per schedule, not per packet.
        """
        forward = tuple(sorted(self.elements, key=lambda item: item.hop))
        hops = tuple(element.hop for element in forward)
        backward = tuple(reversed(forward))
        schedule = (
            hops, forward, backward,
            self._leg(Direction.CLIENT_TO_SERVER, 0, forward, bisect_right(hops, 0)),
            self._leg(
                Direction.SERVER_TO_CLIENT, self.hop_count, backward,
                len(hops) - bisect_left(hops, self.hop_count),
            ),
        )
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
        hops, forward, backward, _client_leg, _server_leg = schedule
        if direction is Direction.CLIENT_TO_SERVER:
            return forward, bisect_right(hops, origin_hop)
        return backward, len(hops) - bisect_left(hops, origin_hop)

    def _leg(self, direction: Direction, origin_hop: int, plan: tuple, start: int) -> tuple:
        target_hop = (
            plan[start].hop if start < len(plan) else self.destination_hop(direction)
        )
        distance = target_hop - origin_hop
        if distance < 0:
            distance = -distance
        return (
            direction, origin_hop, plan, start, target_hop, distance,
            self._per_hop_delay * distance,
        )

    def leg(self, origin_hop: int, direction: Direction) -> tuple:
        """The first leg of a packet leaving ``origin_hop``: ``(direction,
        origin_hop, plan, start, target_hop, distance, delay)``, toward
        the first element ahead (``plan[start]``) or the path end."""
        return self._leg(direction, origin_hop, *self.travel_plan(origin_hop, direction))


class _Transit:
    """A run of packets in flight together, reused hop to hop.

    A run is what the heap would otherwise hold as consecutive entries:
    packets on one path, in one direction, at the same hop and due at the
    same instant, queued with consecutive ``seq``.  :meth:`Network.launch`
    forms it from a call's same-direction packets (a GFW volley) and from
    back-to-back launches from one origin with nothing scheduled between
    them (an insertion burst, a server's data+FIN+ACK).  A lone packet is
    a run of one.  The run holds one heap entry; since no other entry can
    sort between consecutive ``seq`` of one clock, popping it is popping
    its members in order.

    At each stop :meth:`fire` takes the members in order through TTL and
    loss accounting and the element visit, exactly as one event per
    member would.  When a member's visit schedules anything (a GFW volley,
    a middlebox replacement), the members before it would have been
    queued before that, so they go on as a run of their own on the
    ``seq`` reserved for them, and the member starts a new run on a
    ``seq`` taken after the visit.  At the destination the members leave
    the run as they are handed over; while a host handles one, the rest
    of a run of several stay visible as :attr:`Network.delivering`, as
    they would be queued.

    A single slotted object rides the clock for the whole traversal:
    after each stop :meth:`fire` mutates ``current_hop``/``plan_index``
    and re-posts it.  ``cancelled`` is a class attribute — transits are
    never cancelled, and keeping it off the instance saves a slot write.

    ``fire`` also *fast-forwards*: after a stop, if the heap top is
    strictly later than the run's next arrival (and that arrival is
    within the clock's active run horizon), no other event can execute in
    between — so the next leg is processed inline, advancing the clock
    directly instead of a heappush/heappop round trip.  Tie-breaking is
    preserved exactly: an equal-time heap entry was necessarily pushed
    earlier (lower seq) and must fire first, so equality suppresses the
    fast path.

    ``arrival`` and ``seq`` are the heap key the run was first queued
    with; a later launch reads them to tell whether it may join.
    """

    __slots__ = (
        "network", "path", "packets", "drop_hops", "direction",
        "current_hop", "plan", "plan_len", "plan_index", "origin",
        "target_hop", "distance", "arrival", "seq",
    )

    cancelled = False

    def fire(self) -> None:
        network = self.network
        path = self.path
        packets = self.packets
        drop_hops = self.drop_hops
        direction = self.direction
        origin = self.origin
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
        per_hop = path._per_hop_delay
        jitter = path.jitter
        n = len(packets)
        while True:
            now = clock._now
            if index >= plan_len:
                # Delivery.  Members leave the run as they are handed
                # over; while a host handles one, the rest would still be
                # queued if each packet rode alone, so network.delivering
                # shows them to queue scans (a run of one has no rest).
                if n > 1:
                    network.delivering = self
                while packets:
                    packet = packets[0]
                    drop_hop = drop_hops[0]
                    del packets[0], drop_hops[0]
                    # TTL accounting: packet.ttl was the value at current_hop.
                    remaining_ttl = packet.ttl - distance
                    if (remaining_ttl <= 0 or drop_hop is not None) and network._lost(
                        packet, drop_hop, remaining_ttl, current_hop, target_hop,
                        direction, now,
                    ):
                        continue
                    packet.ttl = remaining_ttl
                    network._deliver(path, packet, direction, origin)
                if n > 1:
                    network.delivering = None
                return
            element = plan[index]
            next_index = index + 1
            if next_index < plan_len:
                next_target = plan[next_index].hop
            elif c2s:
                next_target = path.hop_count
            else:
                next_target = 0
            next_distance = next_target - element.hop
            if next_distance < 0:
                next_distance = -next_distance
            # seq of the run the members kept so far go on as (0: none
            # reserved yet).
            seg_seq = 0
            i = 0
            while i < n:
                packet = packets[i]
                drop_hop = drop_hops[i]
                remaining_ttl = packet.ttl - distance
                if (remaining_ttl <= 0 or drop_hop is not None) and network._lost(
                    packet, drop_hop, remaining_ttl, current_hop, target_hop,
                    direction, now,
                ):
                    del packets[i], drop_hops[i]
                    n -= 1
                    continue
                packet.ttl = remaining_ttl
                if element.is_tap:
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
                        del packets[i], drop_hops[i]
                        n -= 1
                        continue
                    if verdict is Verdict.REPLACE:
                        if trace.enabled:
                            trace.record(
                                now, element.name, "replace", packet, direction.value,
                                note=f"{len(result.packets)} packet(s)",
                            )
                        for replacement in result.packets:
                            delay = per_hop * next_distance
                            if jitter > 0.0 and delay > 0.0:
                                delay *= 1.0 + network.rng.uniform(-jitter, jitter)
                            clock._seq += 1
                            _queue_run(
                                network, path, [replacement], [drop_hop], direction,
                                element.hop, plan, next_index, origin,
                                next_target, next_distance, now + delay, clock._seq,
                            )
                        del packets[i], drop_hops[i]
                        n -= 1
                        continue
                    if trace.enabled:
                        trace.record(now, element.name, "forward", packet, direction.value)
                if n == 1:
                    # A run of one has nothing to reserve or split.
                    break
                if seg_seq:
                    if clock._seq != seg_seq:
                        # This member's visit scheduled something after
                        # the members before it were due to be queued:
                        # they go on as a run of their own (a run of
                        # several members implies no jitter).
                        _queue_run(
                            network, path, packets[:i], drop_hops[:i], direction,
                            element.hop, plan, next_index, origin,
                            next_target, next_distance,
                            now + per_hop * next_distance, seg_seq,
                        )
                        del packets[:i], drop_hops[:i]
                        n -= i
                        i = 0
                        clock._seq += 1
                        seg_seq = clock._seq
                elif i + 1 < n:
                    # A later member's visit may schedule something,
                    # which must sort after this member: reserve its
                    # seq now.
                    clock._seq += 1
                    seg_seq = clock._seq
                i += 1
            else:
                # Every member left the run here (a run of one that stays
                # breaks out above).
                if not n:
                    return
            # Advance to the next leg.
            current_hop = element.hop
            index = next_index
            target_hop = next_target
            distance = next_distance
            delay = per_hop * distance
            if jitter > 0.0 and delay > 0.0:
                delay *= 1.0 + network.rng.uniform(-jitter, jitter)
            arrival = now + delay
            if (not queue or queue[0][0] > arrival) and arrival <= clock._run_until:
                # Nothing can execute before this arrival: take the next
                # leg inline instead of a heappush/heappop round trip.
                clock._now = arrival
                continue
            self.current_hop = current_hop
            self.plan_index = index
            self.target_hop = target_hop
            self.distance = distance
            if not seg_seq:
                clock._seq += 1
                seg_seq = clock._seq
            heappush(queue, (arrival, seg_seq, self))
            return


def _queue_run(
    network: "Network",
    path: Path,
    packets: List[IPPacket],
    drop_hops: List[Optional[int]],
    direction: Direction,
    hop: int,
    plan: tuple,
    index: int,
    origin: str,
    target_hop: int,
    distance: int,
    arrival: float,
    seq: int,
) -> "_Transit":
    """Queue a run leaving ``hop`` for ``target_hop`` (``plan[index]``'s
    hop, or the path end), ``distance`` hops away, as the heap entry
    ``(arrival, seq, run)``.  Every run is built here.  (A module
    function rather than ``__init__`` or a static method: it runs once
    per launched packet, and in CPython 3.11 a class call into a Python
    ``__init__`` costs about twice a plain call.)  The push goes straight
    onto the clock's heap; the entry ordering contract lives in
    ``simclock.py``."""
    run = _Transit()
    run.network = network
    run.path = path
    run.packets = packets
    run.drop_hops = drop_hops
    run.direction = direction
    run.current_hop = hop
    run.plan = plan
    run.plan_len = len(plan)
    run.plan_index = index
    run.origin = origin
    run.target_hop = target_hop
    run.distance = distance
    run.arrival = arrival
    run.seq = seq
    heappush(network.clock._queue, (arrival, seq, run))
    return run


def _launch_packet(
    network: "Network", path: Path, packet: IPPacket, leg: tuple, origin: str
) -> None:
    """Put ``packet`` on its first ``leg`` (see :meth:`Path.leg`): draw
    its loss, then join the clock's last launched run (``SimClock._tail``)
    or queue a run of its own.  The one launch rule, shared by
    :meth:`Network.send` and :meth:`Network.launch`.

    The packet joins while the heap would hold it as the run's next
    entry: the run was queued with the clock's last ``seq`` at this
    instant, heads the same way from the same origin, is due at the
    packet's arrival and has not fired (its leg is longer than zero).
    """
    direction, origin_hop, plan, start, target_hop, distance, leg_delay = leg
    clock = network.clock
    rng = network.rng
    loss_rate = path.loss_rate
    drop_hop: Optional[int] = None
    if loss_rate > 0 and rng.random() < loss_rate:
        low, high = sorted((origin_hop, path.destination_hop(direction)))
        drop_hop = rng.randint(low + 1, high)
        if direction is Direction.SERVER_TO_CLIENT:
            # express as the hop (client coordinate) where it dies
            drop_hop = rng.randint(low, high - 1)
    arrival = clock._now + leg_delay
    jitter = path.jitter
    if jitter == 0.0:
        run = clock._tail
        if (
            run is not None
            and run.seq == clock._seq
            and run.direction is direction
            and run.arrival == arrival
            and leg_delay > 0.0
            and run.path is path
            and run.current_hop == origin_hop
            and run.origin == origin
        ):
            run.packets.append(packet)
            run.drop_hops.append(drop_hop)
            return
    elif leg_delay > 0.0:
        arrival = clock._now + leg_delay * (1.0 + rng.uniform(-jitter, jitter))
    clock._seq += 1
    run = _queue_run(
        network, path, [packet], [drop_hop], direction, origin_hop, plan,
        start, origin, target_hop, distance, arrival, clock._seq,
    )
    if jitter == 0.0:
        clock._tail = run


class Network:
    """Holds hosts and one path and runs packet traversal on the event
    clock."""

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
        #: The one client<->server path (a route is one path in one
        #: trial); None until :meth:`add_path`.
        self.path: Optional[Path] = None
        #: Packets that arrived for an IP with no registered host.
        self.undeliverable = 0
        #: The run whose members are being handed to hosts right now.
        #: Its members still to come would be heap entries if each packet
        #: rode alone, so :meth:`queued` counts them as queued.
        self.delivering: Optional[_Transit] = None

    # -- topology -----------------------------------------------------------
    def add_host(self, host: Endpoint) -> Endpoint:
        if host.ip in self.hosts:
            raise ValueError(f"duplicate host IP {host.ip}")
        self.hosts[host.ip] = host
        host.network = self
        return host

    def add_path(self, path: Path) -> Path:
        if self.path is not None:
            raise ValueError(f"network already holds the path {self.path.name}")
        self.path = path
        path.network = self
        return path

    def clear(self) -> None:
        """Detach every host and the path.  Both point back at this
        network, so a discarded topology is only freed by reference
        counting once the links are cut."""
        for host in self.hosts.values():
            host.network = None
        if self.path is not None:
            self.path.network = None
        self.hosts.clear()
        self.path = None

    # -- sending ------------------------------------------------------------
    def send(self, sender: Endpoint, packet: IPPacket) -> None:
        """Called by an endpoint to transmit toward ``packet.dst``.

        Only the path's two endpoints talking to each other have a
        route; anything else is dropped and counted undeliverable.  The
        packet's first leg is the path end's, cached with the schedule;
        it then joins or starts a run exactly as :meth:`launch` would
        have it."""
        path = self.path
        sender_ip = sender.ip
        # ``end`` indexes the sender's leg in ``Path._schedule``.
        if path is not None and sender_ip == path.client_ip and packet.dst == path.server_ip:
            end = 3
        elif path is not None and sender_ip == path.server_ip and packet.dst == path.client_ip:
            end = 4
        else:
            self.trace.record(
                self.clock.now, sender.name, "drop", packet, note="no route"
            )
            self.undeliverable += 1
            return
        schedule = path._schedule
        if schedule is None:
            schedule = path._build_schedule()
        leg = schedule[end]
        if self.trace.enabled:
            self.trace.record(
                self.clock._now, sender.name, "send", packet, leg[0].value
            )
        _launch_packet(self, path, packet, leg, sender.name)

    def launch(
        self,
        path: Path,
        packets: Sequence[IPPacket],
        origin_hop: int,
        origin: str,
    ) -> None:
        """Start event-driven traversal of ``packets`` along ``path``.

        The packets leave ``origin_hop`` in list order, each toward the
        path end that owns its destination.  Loss is decided up front by
        drawing a drop hop; elements before the drop hop still see the
        packet (so the GFW may act on a packet the server never receives —
        a real and exploited asymmetry).  Every packet gets its own loss
        draw, in list order, as if launched alone.

        Packets join one :class:`_Transit` run while they are what the
        heap would hold as consecutive entries: same direction, same
        arrival and nothing scheduled on the clock since the run was
        queued.  That covers a call's same-direction packets and the
        clock's last launched run (``SimClock._tail``), so back-to-back
        launches from one origin share a run too.  A path with jitter
        draws a delay per packet and leg, so there every packet is a run
        of its own.
        """
        client_ip = path.client_ip
        leg = None
        for packet in packets:
            direction = (
                Direction.SERVER_TO_CLIENT if packet.dst == client_ip
                else Direction.CLIENT_TO_SERVER
            )
            if leg is None or leg[0] is not direction:
                leg = path.leg(origin_hop, direction)
            _launch_packet(self, path, packet, leg, origin)

    # -- traversal engine -----------------------------------------------------
    def _lost(
        self,
        packet: IPPacket,
        drop_hop: Optional[int],
        remaining_ttl: int,
        current_hop: int,
        target_hop: int,
        direction: Direction,
        now: float,
    ) -> bool:
        """Whether ``packet``, arriving at ``target_hop`` from
        ``current_hop``, died on the way: lost at its drop hop, or its TTL
        ran out first (``packet.ttl`` is the value at ``current_hop``,
        ``remaining_ttl`` the value it would arrive with).  Records the
        drop.  Only called when the packet has a drop hop or too small a
        TTL, so the common arrival costs no call."""
        expiry_hop: Optional[int] = None
        if remaining_ttl <= 0:
            expiry_hop = (
                current_hop + packet.ttl
                if direction is Direction.CLIENT_TO_SERVER
                else current_hop - packet.ttl
            )
        trace = self.trace
        if drop_hop is not None and self._hop_reached(
            current_hop, target_hop, drop_hop, direction
        ) and (
            expiry_hop is None
            or self._loss_before_ttl(current_hop, drop_hop, expiry_hop, direction)
        ):
            if trace.enabled:
                trace.record(
                    now, f"hop{drop_hop}", "drop", packet, direction.value,
                    note="loss",
                )
            return True
        if expiry_hop is not None:
            if trace.enabled:
                trace.record(
                    now, f"hop{expiry_hop}", "drop", packet, direction.value,
                    note="ttl-expired",
                )
            return True
        return False

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
        now = self.clock._now
        if host is None:
            self.undeliverable += 1
            self.trace.record(
                now, destination_ip, "drop", packet, direction.value,
                note="no such host",
            )
            return
        if self.trace.enabled:
            self.trace.record(now, host.name, "deliver", packet, direction.value)
        host.handle_packet(packet, now)

    def queued(self, origin: str, direction: Direction) -> bool:
        """Whether a packet ``origin`` sent in ``direction`` is still on
        its way: queued on the clock, or a member of the run being
        delivered right now that is still to be handed over (it would be
        queued if each packet rode alone).  A queued run always holds at
        least one packet."""
        delivering = self.delivering
        if (
            delivering is not None
            and delivering.packets
            and delivering.origin == origin
            and delivering.direction is direction
        ):
            return True
        for _time, _seq, event in self.clock._queue:
            if (
                event.__class__ is _Transit
                and event.origin == origin
                and event.direction is direction
            ):
                return True
        return False

    # -- convenience ----------------------------------------------------------
    def run(self, duration: float = 10.0) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.clock.run_for(duration)
