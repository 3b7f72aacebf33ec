"""A GFW reset volley is injected with one call.

``_punish`` and ``_enforce_blacklist`` hand their whole volley to
``Tap.inject``.  The call must still give every forged packet what a
launch of its own would: one loss draw (plus the drop-hop draws when it
is lost), an ``injected_by`` stamp and its own ``_Transit`` on the heap,
in build order.  Only the counters move once per volley.
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


def _world(reset_type):
    clock = SimClock()
    network = Network(clock=clock, rng=random.Random(11))
    network.add_host(Host(CLIENT, "client"))
    network.add_host(Host(SERVER, "server"))
    path = Path(CLIENT, SERVER, hop_count=10, base_delay=0.02, loss_rate=LOSS_RATE)
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


def _queued_transits(network):
    entries = sorted(network.clock._queue, key=lambda entry: entry[1])
    assert all(isinstance(entry[2], _Transit) for entry in entries)
    return [entry[2] for entry in entries], [entry[1] for entry in entries]


def _replay_loss_draws(state, packets):
    """The network RNG's state after one loss draw per packet, plus the
    drop-hop draws of each packet the draw loses."""
    rng = random.Random()
    rng.setstate(state)
    for packet in packets:
        if rng.random() < LOSS_RATE:
            if packet.dst == CLIENT:  # from the GFW hop back to hop 0
                rng.randint(1, GFW_HOP)
                rng.randint(0, GFW_HOP - 1)
            else:  # from the GFW hop on to the server at hop 10
                rng.randint(GFW_HOP + 1, 10)
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


@pytest.mark.parametrize(
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
def test_volley_queues_one_transit_per_forged_packet(
    monkeypatch, reset_type, act, volley_size, resets
):
    network, path, device = _world(reset_type)
    built = _record_volleys(monkeypatch, device)
    rng_before = network.rng.getstate()
    registry = get_registry()
    rst_before = registry.counter_value("gfw.rst_sent")

    act(device)

    assert len(built) == volley_size
    transits, seqs = _queued_transits(network)
    assert len(transits) == len(built)
    assert all(t.packet is p for t, p in zip(transits, built))  # build order
    assert seqs == sorted(set(seqs))  # rising, one heap entry each
    for transit in transits:
        packet = transit.packet
        assert transit.origin == device.name
        assert packet.meta["injected_by"] == device.name
        assert transit.current_hop == GFW_HOP
        assert transit.path is path
        expected = (
            Direction.SERVER_TO_CLIENT if packet.dst == CLIENT
            else Direction.CLIENT_TO_SERVER
        )
        assert transit.direction is expected
    assert {t.direction for t in transits} == (
        {Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER} if resets
        else {Direction.SERVER_TO_CLIENT}
    )
    assert network.rng.getstate() == _replay_loss_draws(rng_before, built)
    counted = volley_size if resets else 0
    assert device.resets_injected == counted
    assert registry.counter_value("gfw.rst_sent") - rst_before == counted
    assert device.forged_synacks_injected == (0 if resets else 1)


def test_type2_volley_loses_packets_both_ways():
    """With these seeds the type-2 volley loses packets toward both
    ends, so the replay above checks drop-hop draws in both directions."""
    network, _, device = _world(2)
    _punish(device)
    transits, _ = _queued_transits(network)
    lost = {t.direction for t in transits if t.drop_hop is not None}
    kept = {t.direction for t in transits if t.drop_hop is None}
    assert lost == kept == {Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER}
