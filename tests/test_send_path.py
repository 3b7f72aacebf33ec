"""The per-packet send and receive paths.

``Network.send`` takes an endpoint packet's first leg from the path's
cached schedule instead of working it out per packet; these tests hold
it to ``Network.launch`` of the same packet from the path end, which
works the leg out from the travel plan.  Also pinned: the stack hands
the segment it sends to the wire (so the retransmission queue must keep
its own copy), and a host dispatches over the handlers registered when
a packet arrived.
"""

import random

import pytest

from repro.experiments.lab import SERVER_IP, mini_topology
from repro.netsim import Host, Network, Path, SimClock
from repro.netsim.path import DROP, FORWARD, InlineBox, Tap
from repro.netstack.packet import ACK, IPPacket, TCPSegment
from repro.telemetry.metrics import get_registry

CLIENT, SERVER = "10.0.0.1", "93.184.216.34"


class _Watch(Tap):
    """Records what passes its hop: (time, seq, ttl)."""

    observe_copies = False

    def __init__(self, name, hop, log):
        super().__init__(name, hop)
        self.log = log

    def observe(self, packet, direction, now):
        self.log.append((self.name, now, packet.tcp.seq, packet.ttl))


def _world(loss_rate, jitter):
    clock = SimClock()
    network = Network(clock=clock, rng=random.Random(5))
    client = network.add_host(Host(CLIENT, "client"))
    server = network.add_host(Host(SERVER, "server"))
    path = Path(CLIENT, SERVER, hop_count=12, base_delay=0.03,
                loss_rate=loss_rate, jitter=jitter)
    network.add_path(path)
    log = []
    path.add_element(_Watch("near", 3, log))
    path.add_element(_Watch("far", 9, log))
    for host in (client, server):
        host.register_handler(
            lambda packet, now, name=host.name: log.append(
                (name, now, packet.tcp.seq, packet.ttl)
            ) or True
        )
    return clock, network, client, server, log


def _packet(seq, to_server=True, ttl=64):
    src, dst = (CLIENT, SERVER) if to_server else (SERVER, CLIENT)
    segment = TCPSegment(src_port=40000, dst_port=80, seq=seq, ack=1, flags=ACK)
    return IPPacket(src=src, dst=dst, payload=segment, ttl=ttl)


def _queued(clock):
    """The queue as (arrival, seq, drop hops, leg) in heap order."""
    return [
        (arrival, seq, list(run.drop_hops), run.current_hop, run.target_hop,
         run.distance, run.plan_index)
        for arrival, seq, run in sorted(clock._queue, key=lambda e: e[:2])
    ]


def _script(world, emit, drift_at):
    """Send a mixed burst pattern through ``emit``; drift the route
    server-side before step ``drift_at``.  Returns queue snapshots."""
    clock, network, client, server, _log = world
    snapshots = []
    for step in range(12):
        if step == drift_at:
            network.path.drift_server_side(+3)
        for index in range(3):
            to_server = (step + index) % 3 != 2
            emit(network, client if to_server else server,
                 _packet(1000 * step + index, to_server, ttl=8 + step))
        snapshots.append(_queued(clock))
        clock.run(until=clock.now + 0.011 * (step % 4))
    clock.run()
    return snapshots


def _by_send(network, sender, packet):
    network.send(sender, packet)


def _by_launch(network, sender, packet):
    path = network.path
    origin_hop = 0 if sender.ip == path.client_ip else path.hop_count
    network.launch(path, (packet,), origin_hop, sender.name)


@pytest.mark.parametrize("loss_rate,jitter", [(0.3, 0.25), (0.3, 0.0), (0.0, 0.0)])
def test_send_matches_launch_from_the_path_end(loss_rate, jitter):
    """Same queue entries (arrival, seq, drop hops, leg) after every
    step, same observations and deliveries in the same order, same RNG
    state: on a lossy jittered path, a lossy one that forms runs, and a
    clean one, before and after the route drifts."""
    sent = _world(loss_rate, jitter)
    launched = _world(loss_rate, jitter)
    assert _script(sent, _by_send, drift_at=6) == _script(
        launched, _by_launch, drift_at=6
    )
    assert sent[4] == launched[4]
    assert sent[4]  # something was delivered and observed
    assert sent[1].rng.getstate() == launched[1].rng.getstate()
    assert sent[1].path.hop_count == 15


def test_drift_rebuilds_the_cached_end_legs_once():
    registry = get_registry()

    def rebuilds():
        return registry.counter_value("netsim.schedule_rebuilds")

    clock, network, client, server, log = _world(0.0, 0.0)
    path = network.path
    network.send(client, _packet(1))
    base = rebuilds()
    for seq in range(2, 8):
        network.send(client, _packet(seq))
        network.send(server, _packet(seq, to_server=False))
    assert rebuilds() == base  # sends off a cached schedule are free
    clock.run()
    log.clear()

    path.drift_server_side(+2)
    sent_at = clock.now
    network.send(server, _packet(50, to_server=False))
    assert rebuilds() == base + 1
    network.send(client, _packet(51))
    network.send(server, _packet(52, to_server=False))
    assert rebuilds() == base + 1
    # The server's leg starts at the new path end: the packet needs two
    # more hops (and 30 ms / 14 hops each) to reach the far tap.
    clock.run()
    far = [entry for entry in log if entry[0] == "far" and entry[2] == 50]
    assert far == [("far", far[0][1], 50, 64 - 5)]
    assert far[0][1] - sent_at == pytest.approx(5 * 0.03 / 14)

    path.drift_server_side(-1)
    network.send(server, _packet(60, to_server=False))
    network.send(server, _packet(61, to_server=False))
    assert rebuilds() == base + 2


class _MangleAndDrop(InlineBox):
    """Drops the first ``count`` data packets after scribbling over
    their segment, as a box holding on to the wire object could."""

    def __init__(self, name, hop, count):
        super().__init__(name, hop)
        self.count = count
        self.mangled = []

    def process(self, packet, direction, now):
        segment = packet.tcp
        if segment.payload and self.count:
            self.count -= 1
            self.mangled.append(segment)
            segment.payload = b"X" * len(segment.payload)
            segment.seq += 100
            segment.options.clear()
            return DROP
        return FORWARD


def test_mangling_a_sent_segment_in_flight_leaves_the_retransmission_intact():
    box = _MangleAndDrop("mangler", 3, count=2)
    world = mini_topology(with_gfw=False, elements=[box], serve_http=False)
    received = []
    world.server_tcp.listen(
        80, lambda conn: setattr(
            conn, "on_data", lambda c, data: received.append(data)
        ),
    )
    connection = world.client_tcp.connect(SERVER_IP, 80)
    world.run(1.0)
    connection.send(b"hello, world")
    world.run(3.0)
    # Both the first copy and the first retransmission were mangled and
    # lost; the second retransmission still carries the queued bytes.
    assert len(box.mangled) == 2
    assert box.mangled[0] is not box.mangled[1]
    assert b"".join(received) == b"hello, world"
    assert connection._unacked == []


def test_a_handler_registered_during_dispatch_sees_only_later_packets():
    host = Host(CLIENT, "client")
    calls = []

    def late(packet, now):
        calls.append(("late", packet.tcp.seq))
        return False

    def first(packet, now):
        calls.append(("first", packet.tcp.seq))
        if packet.tcp.seq == 1:
            host.register_handler(late)
            host.register_handler(late, prepend=True)
        return False

    host.register_handler(first)
    host.handle_packet(_packet(1, to_server=False), 0.0)
    assert calls == [("first", 1)]
    assert host.unclaimed_packets == 1
    host.handle_packet(_packet(2, to_server=False), 0.0)
    assert calls == [("first", 1), ("late", 2), ("first", 2), ("late", 2)]
    host.clear()
    host.handle_packet(_packet(3, to_server=False), 0.0)
    assert host.unclaimed_packets == 3
