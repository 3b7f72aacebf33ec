"""Packet runs: same-instant packets on one leg share one heap entry.

``Network.launch`` queues what would be consecutive heap entries (same
path, direction, hop and arrival, consecutive ``seq``) as one
``_Transit`` run.  These tests pin when runs form, the split rule that
keeps ``(time, seq)`` order when a member's visit schedules something,
the delivery view the stop rule reads, and the event counts a run
saves, so a change that stops forming runs fails here.
"""

import random

import pytest

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
)
from repro.experiments.fleet import FleetSpec, run_fleet
from repro.experiments.runner import Outcome, observe_http_trial, run_http_trial
from repro.gfw.device import GFWDevice
from repro.gfw.models import old_config
from repro.netsim import Host, Network, Path, SimClock
from repro.netsim.network import _Transit
from repro.netsim.path import DROP, FORWARD, InlineBox, ProcessResult
from repro.netstack.packet import ACK, SYN, IPPacket, TCPSegment

CLIENT, SERVER = "10.0.0.1", "93.184.216.34"


def _world(jitter=0.0, gfw=True):
    clock = SimClock()
    network = Network(clock=clock, rng=random.Random(1))
    client = network.add_host(Host(CLIENT, "client"))
    server = network.add_host(Host(SERVER, "server"))
    path = Path(CLIENT, SERVER, hop_count=10, base_delay=0.02, jitter=jitter)
    network.add_path(path)
    device = None
    if gfw:
        config = old_config(reset_type=1)
        config.miss_probability = 0.0
        device = GFWDevice("gfw", hop=4, config=config, clock=clock,
                           rng=random.Random(2))
        device.cluster.miss_probability = 0.0
        path.add_element(device)
    return clock, network, client, server, device


def _packet(flags, seq, payload=b"", src=CLIENT, dst=SERVER):
    segment = TCPSegment(src_port=40000, dst_port=80, seq=seq, ack=5000,
                         flags=flags, payload=payload)
    if src == SERVER:
        segment.src_port, segment.dst_port = 80, 40000
    return IPPacket(src=src, dst=dst, payload=segment)


def _runs(clock):
    entries = sorted(clock._queue, key=lambda entry: entry[1])
    assert all(entry[2].__class__ is _Transit for entry in entries)
    return [entry[2].packets for entry in entries]


def test_back_to_back_sends_share_one_run():
    clock, network, client, _server, _ = _world()
    burst = [_packet(ACK, 1000 + i) for i in range(3)]
    for packet in burst:
        network.send(client, packet)
    assert _runs(clock) == [burst]


def test_anything_scheduled_between_sends_starts_a_new_run():
    clock, network, client, _server, _ = _world()
    first, second = _packet(ACK, 1000), _packet(ACK, 1001)
    network.send(client, first)
    clock.schedule(5.0, lambda: None)  # takes a seq between the two
    network.send(client, second)
    queued = [entry[2] for entry in sorted(clock._queue, key=lambda e: e[1])]
    assert [t.packets for t in queued if t.__class__ is _Transit] == [[first], [second]]


def test_sends_at_different_instants_or_directions_do_not_share():
    clock, network, client, server, _ = _world()
    first = _packet(ACK, 1000)
    network.send(client, first)
    back = _packet(ACK, 5000, src=SERVER, dst=CLIENT)
    network.send(server, back)
    assert _runs(clock) == [[first], [back]]
    clock.run(until=0.001)  # nothing arrives yet, but time moves on
    later = _packet(ACK, 1001)
    network.send(client, later)
    assert _runs(clock) == [[first], [back], [later]]


def test_a_path_with_jitter_never_groups():
    clock, network, client, _server, _ = _world(jitter=0.1)
    burst = [_packet(ACK, 1000 + i) for i in range(3)]
    network.launch(network.path, burst, 0, "client")
    assert _runs(clock) == [[packet] for packet in burst]


def test_a_member_that_makes_the_gfw_inject_splits_the_run():
    """m2 completes the keyword: the GFW's reset toward the server
    leaves the GFW hop at the same instant as the run, so the server
    must see m1, the reset, m2, m3, as if each packet rode alone."""
    clock, network, client, server, device = _world()
    received = []
    server.register_handler(lambda packet, now: received.append(packet) or True)
    network.send(client, _packet(SYN, 999))
    clock.run()
    received.clear()
    m1 = _packet(ACK, 1000, b"GET /?q=")
    m2 = _packet(ACK, 1008, b"ultrasurf HTTP/1.1\r\n")
    m3 = _packet(ACK, 1028, b"Host: x\r\n\r\n")
    for packet in (m1, m2, m3):
        network.send(client, packet)
    assert _runs(clock) == [[m1, m2, m3]]

    # One visit of the GFW, then deliveries: [m1], the reset to the
    # server, [m2, m3] and the reset to the client.  Alone, the three
    # packets and two resets would have cost eight events.
    assert clock.run() == 5

    assert len(device.detections) == 1
    assert len(received) == 4
    reset = received[1]
    assert reset.meta["injected_by"] == "gfw" and reset.tcp.is_rst
    assert [received[0], received[2], received[3]] == [m1, m2, m3]


def test_members_still_to_come_count_as_delivering():
    """While a host handles one member, the rest of its run are what
    would still be queued; the stop rule's queue scan reads them.  A
    run of one has no rest and leaves ``Network.delivering`` alone."""
    clock, network, client, server, _ = _world(gfw=False)
    seen = []
    server.register_handler(
        lambda packet, now: seen.append(
            None if network.delivering is None else list(network.delivering.packets)
        ) or True
    )
    burst = [_packet(ACK, 1000 + i) for i in range(3)]
    for packet in burst:
        network.send(client, packet)
    clock.run()
    assert seen == [burst[1:], burst[2:], []]
    assert network.delivering is None
    seen.clear()
    network.send(client, _packet(ACK, 2000))
    clock.run()
    assert seen == [None]


class _Rewriter(InlineBox):
    """Drops the segment with seq 1001 and splits the one with seq
    1002 in two."""

    def process(self, packet, direction, now):
        if packet.tcp.seq == 1001:
            return DROP
        if packet.tcp.seq == 1002:
            halves = [packet.copy(), packet.copy()]
            halves[1].tcp.seq = 1003
            return ProcessResult.replace(halves)
        return FORWARD


def test_a_middlebox_drop_and_replace_inside_a_run_keep_order():
    """A member a middlebox drops leaves the run; a member it replaces
    leaves it too, and its replacements go on as runs of their own
    queued after the members before them: the server sees 1000, the two
    halves of 1002, then 1004, as if each packet rode alone."""
    clock, network, client, server, _ = _world(gfw=False)
    network.path.add_element(_Rewriter("box", 3))
    received = []
    server.register_handler(lambda packet, now: received.append(packet.tcp.seq) or True)
    for seq in (1000, 1001, 1002, 1004):
        network.send(client, _packet(ACK, seq))
    assert len(_runs(clock)) == 1
    clock.run()
    assert received == [1000, 1002, 1003, 1004]


def test_table1_trial_heap_events_pinned(monkeypatch):
    """An improved-TCB-teardown trial's insertion bursts and the
    server's data/FIN segments ride as runs: 27 heap events (57 with one
    event per packet)."""
    counted = []
    original = SimClock.run

    def counting_run(self, *args, **kwargs):
        executed = original(self, *args, **kwargs)
        counted.append(executed)
        return executed

    monkeypatch.setattr(SimClock, "run", counting_run)
    record = run_http_trial(
        CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=1)[0],
        "improved-tcb-teardown", DEFAULT_CALIBRATION, seed=3, keyword=True,
    )
    assert record.outcome is Outcome.SUCCESS
    assert sum(counted) == 27


def _flow_states(device):
    return {
        key: (
            flow.state, flow.believed_client, flow.client_next_seq,
            flow.server_next_seq, flow.server_seq_valid, flow.syn_count,
            flow.synack_count, flow.handshake_complete, flow.punished,
            flow.fin_seen,
        )
        for key, flow in device.flows.items()
    }


@pytest.mark.parametrize("strategy_id", ["improved-tcb-teardown", None])
def test_a_traced_trial_is_the_measured_trial(monkeypatch, strategy_id):
    """Tracing a trial adds records, not work: the trial record, every
    device's counters and flow states equal the untraced run's, and in
    both runs the GFW observes the very packet object its transit
    carries on (no copy made for the trace)."""
    running = []  # transits whose stop is in progress, innermost last
    carried = []  # per observe call: is it a member of that transit?
    fire, observe = _Transit.fire, GFWDevice.observe

    def tracked_fire(self):
        running.append(self)
        try:
            fire(self)
        finally:
            running.pop()

    def tracked_observe(self, packet, direction, now):
        carried.append(any(packet is member for member in running[-1].packets))
        observe(self, packet, direction, now)

    monkeypatch.setattr(_Transit, "fire", tracked_fire)
    monkeypatch.setattr(GFWDevice, "observe", tracked_observe)
    runs = []
    for trace in (False, True):
        carried.clear()
        with observe_http_trial(
            CHINA_VANTAGE_POINTS[0], outside_china_catalog(count=1)[0],
            strategy_id, DEFAULT_CALIBRATION, seed=3, keyword=True, trace=trace,
        ) as (record, scenario):
            assert bool(scenario.trace.events) is trace
            assert carried and all(carried)
            runs.append((
                record,
                [device.stats() for device in scenario.gfw_devices],
                [_flow_states(device) for device in scenario.gfw_devices],
            ))
    assert runs[0] == runs[1]


def test_fleet_flow_events_pinned():
    """``flow_events`` counts heap events: 2,718 for this spec (5,036
    with one event per packet), outcomes unchanged by the runs."""
    spec = FleetSpec(flows=48, groups=1, window=16, max_flows=24, sites=8, seed=5)
    result = run_fleet(spec, workers=1)
    assert result.flow_events == 2718
    assert result.outcomes["benign"].success == 21
