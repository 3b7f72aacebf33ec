"""Network traversal tests: TTL, taps vs in-path boxes, loss, injection,
route drift, and the trace recorder."""

import random

import pytest

from repro.netstack.packet import ACK, RST, tcp_packet
from repro.netsim import (
    Host,
    InlineBox,
    Network,
    Path,
    SimClock,
    Tap,
    TraceRecorder,
)
from repro.netsim.path import DROP, FORWARD, ProcessResult

A, B = "10.0.0.1", "10.0.0.9"


class RecordingTap(Tap):
    def __init__(self, name, hop):
        super().__init__(name, hop)
        self.seen = []

    def observe(self, packet, direction, now):
        self.seen.append((packet, direction, now))


class DropBox(InlineBox):
    def __init__(self, name, hop, drop=True):
        super().__init__(name, hop)
        self.drop = drop
        self.seen = 0

    def process(self, packet, direction, now):
        self.seen += 1
        return DROP if self.drop else FORWARD


class Sink(Host):
    def __init__(self, ip, name=None):
        super().__init__(ip, name)
        self.received = []
        self.register_handler(self._take)

    def _take(self, packet, now):
        self.received.append((packet, now))
        return True


def _world(hop_count=10, loss_rate=0.0, seed=1, trace=False):
    clock = SimClock()
    network = Network(
        clock=clock, rng=random.Random(seed),
        trace=TraceRecorder(enabled=trace),
    )
    a = network.add_host(Sink(A, "a"))
    b = network.add_host(Sink(B, "b"))
    path = Path(A, B, hop_count=hop_count, loss_rate=loss_rate)
    network.add_path(path)
    return clock, network, a, b, path


def _pkt(ttl=64, src=A, dst=B):
    return tcp_packet(src, dst, 1000, 80, flags=ACK, ttl=ttl, payload=b"x")


class TestDelivery:
    def test_basic_delivery_with_delay(self):
        clock, net, a, b, path = _world()
        a.send(_pkt())
        clock.run()
        assert len(b.received) == 1
        _, when = b.received[0]
        assert when == pytest.approx(path.base_delay)

    def test_reverse_direction(self):
        clock, net, a, b, path = _world()
        b.send(_pkt(src=B, dst=A))
        clock.run()
        assert len(a.received) == 1

    def test_no_route_counts_undeliverable(self):
        """Only the path's two endpoints talking to each other have a
        route: an unknown destination, a host off the path, and a host
        addressing itself are all dropped."""
        clock, net, a, b, path = _world()
        c = net.add_host(Sink("10.0.0.5", "c"))
        a.send(_pkt(dst="172.16.0.1"))
        c.send(_pkt(src=c.ip, dst=B))
        a.send(_pkt(dst=A))
        clock.run()
        assert net.undeliverable == 3
        assert a.received == b.received == []

    def test_duplicate_host_rejected(self):
        _, net, _, _, _ = _world()
        with pytest.raises(ValueError):
            net.add_host(Host(A))

    def test_duplicate_path_rejected(self):
        """A network holds one path: a duplicate and a second pair of
        endpoints are both rejected."""
        _, net, _, _, path = _world()
        for second in (Path(A, B), Path(A, "10.0.0.5")):
            with pytest.raises(ValueError):
                net.add_path(second)
        assert net.path is path


class TestTTL:
    def test_packet_with_sufficient_ttl_arrives(self):
        clock, net, a, b, path = _world(hop_count=10)
        a.send(_pkt(ttl=11))
        clock.run()
        assert len(b.received) == 1

    def test_packet_with_exact_hop_count_ttl_dies_at_last_router(self):
        clock, net, a, b, path = _world(hop_count=10)
        a.send(_pkt(ttl=10))
        clock.run()
        assert len(b.received) == 0

    def test_low_ttl_reaches_tap_but_not_destination(self):
        """The core insertion-packet mechanic."""
        clock, net, a, b, path = _world(hop_count=10)
        tap = RecordingTap("tap", hop=4)
        path.add_element(tap)
        a.send(_pkt(ttl=5))
        clock.run()
        assert len(tap.seen) == 1
        assert len(b.received) == 0

    def test_ttl_too_low_even_for_tap(self):
        clock, net, a, b, path = _world(hop_count=10)
        tap = RecordingTap("tap", hop=4)
        path.add_element(tap)
        a.send(_pkt(ttl=4))
        clock.run()
        assert len(tap.seen) == 0

    def test_ttl_decrement_visible_at_tap(self):
        clock, net, a, b, path = _world(hop_count=10)
        tap = RecordingTap("tap", hop=4)
        path.add_element(tap)
        a.send(_pkt(ttl=64))
        clock.run()
        packet, _, _ = tap.seen[0]
        assert packet.ttl == 60

    def test_server_to_client_ttl_accounting(self):
        """TTL is measured from the actual sender, not the path client."""
        clock, net, a, b, path = _world(hop_count=10)
        tap = RecordingTap("tap", hop=4)  # 6 hops from the server end
        path.add_element(tap)
        b.send(_pkt(src=B, dst=A, ttl=7))
        clock.run()
        assert len(tap.seen) == 1  # 7 > 6: reaches the tap…
        assert len(a.received) == 0  # …but dies before the client (10 hops)


class TestElements:
    def test_inline_drop(self):
        clock, net, a, b, path = _world()
        box = DropBox("box", hop=3)
        path.add_element(box)
        a.send(_pkt())
        clock.run()
        assert box.seen == 1
        assert len(b.received) == 0

    def test_inline_forward(self):
        clock, net, a, b, path = _world()
        box = DropBox("box", hop=3, drop=False)
        path.add_element(box)
        a.send(_pkt())
        clock.run()
        assert len(b.received) == 1

    def test_replace_continues_traversal(self):
        class Rewriter(InlineBox):
            def process(self, packet, direction, now):
                replacement = packet.copy()
                replacement.tcp.payload = b"rewritten"
                return ProcessResult.replace([replacement])

        clock, net, a, b, path = _world()
        path.add_element(Rewriter("rw", 3))
        a.send(_pkt())
        clock.run()
        assert b.received[0][0].tcp.payload == b"rewritten"

    def test_elements_visited_in_hop_order(self):
        clock, net, a, b, path = _world()
        taps = [RecordingTap(f"t{i}", hop=i) for i in (7, 2, 5)]
        for tap in taps:
            path.add_element(tap)
        a.send(_pkt())
        clock.run()
        times = {tap.name: tap.seen[0][2] for tap in taps}
        assert times["t2"] < times["t5"] < times["t7"]

    def test_element_outside_path_rejected(self):
        _, _, _, _, path = _world(hop_count=5)
        with pytest.raises(ValueError):
            path.add_element(RecordingTap("bad", hop=5))

    def test_tap_sees_copy_not_original(self):
        class Mutator(Tap):
            def observe(self, packet, direction, now):
                packet.tcp.payload = b"mutated"

        clock, net, a, b, path = _world()
        path.add_element(Mutator("m", 3))
        a.send(_pkt())
        clock.run()
        assert b.received[0][0].tcp.payload == b"x"


class TestInjection:
    def test_tap_injection_toward_client(self):
        clock, net, a, b, path = _world()
        tap = RecordingTap("gfw", hop=4)
        path.add_element(tap)
        a.send(_pkt())
        clock.run()
        forged = tcp_packet(B, A, 80, 1000, flags=RST, ttl=64)
        tap.inject([forged])
        clock.run()
        assert any(p.tcp.is_rst for p, _ in a.received)

    def test_tap_injection_toward_server(self):
        clock, net, a, b, path = _world()
        tap = RecordingTap("gfw", hop=4)
        path.add_element(tap)
        forged = tcp_packet(A, B, 1000, 80, flags=RST, ttl=64)
        tap.inject([forged])
        clock.run()
        assert any(p.tcp.is_rst for p, _ in b.received)

    def test_injection_requires_attachment(self):
        tap = RecordingTap("stray", hop=1)
        with pytest.raises(RuntimeError):
            tap.inject([_pkt()])

    def test_injected_packet_arrives_before_original_at_destination(self):
        """A reset injected from mid-path wins the race to the server."""
        clock, net, a, b, path = _world()

        class Injector(Tap):
            def observe(self, packet, direction, now):
                if packet.is_tcp and packet.tcp.has_ack:
                    forged = tcp_packet(A, B, 1000, 80, flags=RST)
                    self.inject([forged])

        path.add_element(Injector("inj", hop=5))
        a.send(_pkt())
        clock.run()
        kinds = [("R" if p.tcp.is_rst else "A") for p, _ in b.received]
        assert kinds == ["R", "A"]


class TestLoss:
    def test_lossless_path_delivers_everything(self):
        clock, net, a, b, path = _world(loss_rate=0.0)
        for _ in range(50):
            a.send(_pkt())
        clock.run()
        assert len(b.received) == 50

    def test_full_loss_delivers_nothing(self):
        clock, net, a, b, path = _world(loss_rate=1.0)
        for _ in range(20):
            a.send(_pkt())
        clock.run()
        assert len(b.received) == 0

    def test_loss_rate_statistics(self):
        clock, net, a, b, path = _world(loss_rate=0.3, seed=5)
        for _ in range(400):
            a.send(_pkt())
        clock.run()
        delivered = len(b.received)
        assert 230 <= delivered <= 330  # ~280 expected

    def test_elements_before_drop_hop_still_observe(self):
        """Loss after the tap: the censor sees packets the server never
        gets — a real asymmetry the strategies rely on."""
        clock, net, a, b, path = _world(loss_rate=1.0, seed=3)
        tap = RecordingTap("tap", hop=1)
        path.add_element(tap)
        for _ in range(100):
            a.send(_pkt())
        clock.run()
        assert len(b.received) == 0
        assert len(tap.seen) > 0


class TestRouteDrift:
    def test_server_side_drift_changes_hop_count_only(self):
        _, _, _, _, path = _world(hop_count=10)
        tap = RecordingTap("t", hop=4)
        path.add_element(tap)
        path.drift_server_side(2)
        assert path.hop_count == 12
        assert tap.hop == 4

    def test_client_side_drift_shifts_elements(self):
        _, _, _, _, path = _world(hop_count=10)
        tap = RecordingTap("t", hop=4)
        path.add_element(tap)
        path.drift_client_side(2)
        assert path.hop_count == 12
        assert tap.hop == 6

    def test_invalid_drifts_rejected(self):
        _, _, _, _, path = _world(hop_count=10)
        tap = RecordingTap("t", hop=4)
        path.add_element(tap)
        with pytest.raises(ValueError):
            path.drift_server_side(-7)
        with pytest.raises(ValueError):
            path.drift_client_side(-4)


class TestTrace:
    def test_trace_records_send_observe_deliver(self):
        clock, net, a, b, path = _world(trace=True)
        path.add_element(RecordingTap("tap", hop=4))
        a.send(_pkt())
        clock.run()
        actions = [event.action for event in net.trace.events]
        assert "send" in actions
        assert "observe" in actions
        assert "deliver" in actions

    def test_trace_filter_and_ladder(self):
        clock, net, a, b, path = _world(trace=True)
        a.send(_pkt())
        clock.run()
        sends = net.trace.filter(action="send")
        assert len(sends) == 1
        ladder = net.trace.format_ladder()
        assert "send" in ladder and "deliver" in ladder

    def test_disabled_trace_records_nothing(self):
        clock, net, a, b, path = _world(trace=False)
        a.send(_pkt())
        clock.run()
        assert len(net.trace) == 0
