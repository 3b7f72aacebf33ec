"""A GFW reset volley is injected with one call and rides as packet runs.

``_punish`` and ``_enforce_blacklist`` hand their whole volley to
``Tap.inject``.  The call must still give every forged packet what a
launch of its own would: one loss draw (plus the drop-hop draws when it
is lost) and an ``injected_by`` stamp, in build order.  On a path
without jitter the volley's same-direction packets share one queued
``_Transit`` run, its members in build order; on a path with jitter a
delay is drawn per packet, so every forged packet is queued alone.  Only
the counters move once per volley.
"""

import random

import pytest

from repro.gfw.device import GFWDevice
from repro.gfw.flow import GFWFlow, GFWFlowState
from repro.gfw.models import old_config
from repro.netsim import Direction, Host, Network, Path, SimClock
from repro.netsim.network import _Transit
from repro.netstack.packet import ACK, SYN, IPPacket, TCPSegment
from repro.telemetry.metrics import get_registry

CLIENT, SERVER = "10.0.0.1", "93.184.216.34"
GFW_HOP = 4
LOSS_RATE = 0.5
JITTER = 0.2


def _world(reset_type, jitter=0.0):
    clock = SimClock()
    network = Network(clock=clock, rng=random.Random(11))
    network.add_host(Host(CLIENT, "client"))
    network.add_host(Host(SERVER, "server"))
    path = Path(
        CLIENT, SERVER, hop_count=10, base_delay=0.02, loss_rate=LOSS_RATE,
        jitter=jitter,
    )
    network.add_path(path)
    device = GFWDevice(
        f"gfw-type{reset_type}", hop=GFW_HOP,
        config=old_config(reset_type=reset_type), clock=clock,
        rng=random.Random(12),
    )
    path.add_element(device)
    return network, path, device


def _record_volleys(monkeypatch, device):
    """Spy on the injector: every packet list it builds, in build order."""
    built = []
    for name in ("forged_resets", "forged_synack"):
        real = getattr(device.injector, name)

        def spy(*args, _real=real, **kwargs):
            packets = _real(*args, **kwargs)
            built.extend(packets if isinstance(packets, list) else [packets])
            return packets

        monkeypatch.setattr(device.injector, name, spy)
    return built


def _queued_runs(network):
    entries = sorted(network.clock._queue, key=lambda entry: entry[1])
    assert all(isinstance(entry[2], _Transit) for entry in entries)
    return [entry[2] for entry in entries], [entry[1] for entry in entries]


def _direction(packet):
    return (
        Direction.SERVER_TO_CLIENT if packet.dst == CLIENT
        else Direction.CLIENT_TO_SERVER
    )


def _replay_draws(state, packets, jitter=0.0):
    """The network RNG's state after one loss draw per packet, plus the
    drop-hop draws of each packet the draw loses, plus (with jitter) one
    delay draw per packet."""
    rng = random.Random()
    rng.setstate(state)
    for packet in packets:
        if rng.random() < LOSS_RATE:
            if packet.dst == CLIENT:  # from the GFW hop back to hop 0
                rng.randint(1, GFW_HOP)
                rng.randint(0, GFW_HOP - 1)
            else:  # from the GFW hop on to the server at hop 10
                rng.randint(GFW_HOP + 1, 10)
        if jitter:
            rng.uniform(-jitter, jitter)
    return rng.getstate()


def _client_segment(flags, payload=b""):
    segment = TCPSegment(
        src_port=40000, dst_port=80, seq=1000, ack=5000, flags=flags,
        payload=payload,
    )
    return IPPacket(src=CLIENT, dst=SERVER, payload=segment), segment


def _punish(device):
    flow = GFWFlow(
        believed_client=(CLIENT, 40000), believed_server=(SERVER, 80),
        state=GFWFlowState.ESTABLISHED, client_next_seq=1100,
        server_next_seq=5000, server_seq_valid=True,
    )
    device._punish(flow, now=0.0)


def _enforce_data(device):
    packet, segment = _client_segment(ACK, b"GET / HTTP/1.1\r\n")
    device._enforce_blacklist(packet, segment, now=0.0)


def _enforce_syn(device):
    packet, segment = _client_segment(SYN)
    device._enforce_blacklist(packet, segment, now=0.0)


VOLLEYS = pytest.mark.parametrize(
    "reset_type, act, volley_size, resets",
    [
        (1, _punish, 2, True),
        (2, _punish, 6, True),
        (1, _enforce_data, 2, True),
        (2, _enforce_data, 6, True),
        (2, _enforce_syn, 1, False),
    ],
    ids=["punish-type1", "punish-type2", "blacklist-type1", "blacklist-type2",
         "blacklist-synack"],
)


def _check_counters(device, registry, rst_before, volley_size, resets):
    counted = volley_size if resets else 0
    assert device.resets_injected == counted
    assert registry.counter_value("gfw.rst_sent") - rst_before == counted
    assert device.forged_synacks_injected == (0 if resets else 1)


@VOLLEYS
def test_volley_queues_one_run_per_direction(
    monkeypatch, reset_type, act, volley_size, resets
):
    network, path, device = _world(reset_type)
    built = _record_volleys(monkeypatch, device)
    rng_before = network.rng.getstate()
    registry = get_registry()
    rst_before = registry.counter_value("gfw.rst_sent")

    act(device)

    assert len(built) == volley_size
    runs, seqs = _queued_runs(network)
    # The volley is built toward the client first, then toward the
    # server: one run per same-direction block, members in build order.
    blocks = []
    for packet in built:
        if not blocks or blocks[-1][0] is not _direction(packet):
            blocks.append((_direction(packet), []))
        blocks[-1][1].append(packet)
    assert [run.direction for run in runs] == [d for d, _ in blocks]
    assert [run.packets for run in runs] == [members for _, members in blocks]
    assert all(
        a is b for a, b in zip([p for run in runs for p in run.packets], built)
    )
    assert seqs == sorted(set(seqs))  # rising, one heap entry per run
    for run in runs:
        assert run.origin == device.name
        assert run.current_hop == GFW_HOP
        assert run.path is path
        assert len(run.drop_hops) == len(run.packets)
        for packet in run.packets:
            assert packet.meta["injected_by"] == device.name
    assert {run.direction for run in runs} == (
        {Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER} if resets
        else {Direction.SERVER_TO_CLIENT}
    )
    assert network.rng.getstate() == _replay_draws(rng_before, built)
    _check_counters(device, registry, rst_before, volley_size, resets)


@VOLLEYS
def test_volley_queues_one_transit_per_forged_packet(
    monkeypatch, reset_type, act, volley_size, resets
):
    """With jitter every forged packet is a run of its own: its delay
    draw follows its loss draws, as if it were launched alone."""
    network, path, device = _world(reset_type, jitter=JITTER)
    built = _record_volleys(monkeypatch, device)
    rng_before = network.rng.getstate()
    registry = get_registry()
    rst_before = registry.counter_value("gfw.rst_sent")

    act(device)

    assert len(built) == volley_size
    transits, seqs = _queued_runs(network)
    assert [t.packets for t in transits] == [[p] for p in built]  # build order
    assert seqs == sorted(set(seqs))
    for transit, packet in zip(transits, built):
        assert transit.origin == device.name
        assert packet.meta["injected_by"] == device.name
        assert transit.current_hop == GFW_HOP
        assert transit.path is path
        assert transit.direction is _direction(packet)
    assert network.rng.getstate() == _replay_draws(rng_before, built, JITTER)
    _check_counters(device, registry, rst_before, volley_size, resets)


def test_type2_volley_loses_packets_both_ways():
    """With these seeds the type-2 volley loses packets toward both
    ends, so the replay above checks drop-hop draws in both directions."""
    network, _, device = _world(2)
    _punish(device)
    runs, _ = _queued_runs(network)
    members = [
        (run.direction, drop_hop) for run in runs for drop_hop in run.drop_hops
    ]
    lost = {direction for direction, drop_hop in members if drop_hop is not None}
    kept = {direction for direction, drop_hop in members if drop_hop is None}
    assert lost == kept == {Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER}
