"""Property-based and fuzz tests on core invariants.

These are the "no crash, no corruption" guarantees: random packet
sequences must never break the endpoint stack or the GFW device, wire
round trips must be lossless, and the reassembly/cache structures must
agree with simple reference models.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netstack.options import (
    MD5SignatureOption,
    MSSOption,
    TimestampOption,
)
from repro.netstack.packet import (
    ACK,
    FIN,
    IPPacket,
    RST,
    SYN,
    TCPSegment,
)
from repro.netstack.wire import parse_ip, serialize_ip
from repro.gfw.blacklist import Blacklist
from repro.tcp.tcb import TCPState

from repro.experiments.lab import CLIENT_IP, SERVER_IP, mini_topology

# ---------------------------------------------------------------------------
# Strategies for generating arbitrary-but-valid packet objects
# ---------------------------------------------------------------------------
_flags = st.sampled_from([0, SYN, ACK, RST, FIN, SYN | ACK, RST | ACK, FIN | ACK])
_options = st.lists(
    st.sampled_from(
        [MSSOption(), TimestampOption(tsval=5, tsecr=2), MD5SignatureOption()]
    ),
    max_size=2,
)


@st.composite
def tcp_segments(draw):
    return TCPSegment(
        src_port=draw(st.integers(1, 65535)),
        dst_port=draw(st.integers(1, 65535)),
        seq=draw(st.integers(0, 2**32 - 1)),
        ack=draw(st.integers(0, 2**32 - 1)),
        flags=draw(_flags),
        window=draw(st.integers(0, 65535)),
        payload=draw(st.binary(max_size=48)),
        options=draw(_options),
    )


@given(tcp_segments())
@settings(max_examples=60, deadline=None)
def test_wire_roundtrip_arbitrary_segments(segment):
    """Any generated segment survives serialize→parse intact."""
    packet = IPPacket(src="10.0.0.1", dst="10.0.0.2", payload=segment, ttl=33)
    parsed = parse_ip(serialize_ip(packet))
    reparsed = parsed.tcp
    assert reparsed.src_port == segment.src_port
    assert reparsed.dst_port == segment.dst_port
    assert reparsed.seq == segment.seq
    assert reparsed.ack == segment.ack
    assert reparsed.flags == segment.flags
    assert reparsed.payload == segment.payload
    assert len(reparsed.options) == len(segment.options)


@given(st.lists(tcp_segments(), min_size=1, max_size=15), st.integers(0, 2**31))
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_server_stack_survives_arbitrary_segments(segments, seed):
    """Fuzz: any raw segment sequence leaves the server stack in a valid
    state — no exceptions, connection table coherent, and an established
    reference connection still classifiable."""
    world = mini_topology(with_gfw=False, seed=seed % 1000)
    connection = world.client_tcp.connect(SERVER_IP, 80)
    world.run(1.0)
    for segment in segments:
        fuzzed = segment.copy()
        fuzzed.dst_port = 80
        packet = IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=fuzzed)
        world.client.send_raw(packet)
    world.run(3.0)
    for conn in world.server_tcp.connections.values():
        assert isinstance(conn.tcb.state, TCPState)
        assert 0 <= conn.tcb.rcv_nxt < 2**32
        assert 0 <= conn.tcb.snd_nxt < 2**32


@given(st.lists(tcp_segments(), min_size=1, max_size=15), st.integers(0, 2**31))
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_gfw_device_survives_arbitrary_segments(segments, seed):
    """Fuzz: the censor's tracker never crashes on garbage, and its flow
    table stays internally consistent."""
    from repro.analysis.probe import GFWHarness

    harness = GFWHarness(seed=seed % 1000)
    harness.establish()
    for segment in segments:
        fuzzed = segment.copy()
        fuzzed.src_port = 45000
        fuzzed.dst_port = 80
        harness.send_from_client(fuzzed)
    for flow in harness.device.flows.values():
        assert 0 <= flow.client_next_seq < 2**32
        assert flow.believed_client != flow.believed_server


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["add", "check", "tick"]),
            st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3"]),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_blacklist_agrees_with_reference_model(operations):
    """The expiring blacklist matches a dict-of-deadlines model."""
    blacklist = Blacklist(duration=10.0)
    model = {}
    now = 0.0
    for op, ip in operations:
        if op == "add":
            blacklist.add(ip, SERVER_IP, now)
            model[ip] = now + 10.0
        elif op == "check":
            expected = ip in model and now < model[ip]
            assert blacklist.contains(ip, SERVER_IP, now) == expected
        else:
            now += 4.0
    for ip, deadline in model.items():
        assert blacklist.contains(ip, SERVER_IP, now) == (now < deadline)


@given(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=600))
@settings(max_examples=40, deadline=None)
def test_http_transfer_integrity_any_offsets(isn_offset, payload):
    """Whatever the payload bytes, the server receives exactly what the
    client sent (checksums, segmentation, reassembly all agree)."""
    world = mini_topology(with_gfw=False, serve_http=False, seed=3)
    received = []
    world.server_tcp.listen(
        80, lambda conn: setattr(conn, "on_data",
                                 lambda c, data: received.append(data))
    )
    connection = world.client_tcp.connect(SERVER_IP, 80)
    connection.on_established = lambda c: c.send(payload, segment_size=128)
    world.run(5.0)
    assert b"".join(received) == payload


@given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_simclock_monotonic_under_arbitrary_scheduling(delays):
    """Time observed by callbacks never decreases."""
    from repro.netsim.simclock import SimClock

    clock = SimClock()
    observed = []
    for delay in delays:
        clock.schedule(delay, lambda: observed.append(clock.now))
    clock.run()
    assert observed == sorted(observed)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_fragmentation_transparent_to_endpoints(data):
    """Property: fragmenting a data packet at any legal size delivers
    the same bytes to the far endpoint."""
    payload = data.draw(st.binary(min_size=64, max_size=256))
    frag_size = data.draw(st.sampled_from([16, 24, 40, 64]))
    from repro.netstack.fragment import fragment_packet
    from repro.netstack.packet import tcp_packet

    world = mini_topology(with_gfw=False, serve_http=False, seed=5)
    seen = []
    world.server.register_handler(
        lambda p, now: (seen.append(p), False)[1], prepend=True
    )
    packet = tcp_packet(
        CLIENT_IP, SERVER_IP, 1234, 9, flags=ACK, seq=77, payload=payload
    )
    for fragment in fragment_packet(packet, frag_size):
        world.client.send_raw(fragment)
    world.run(2.0)
    whole = [p for p in seen if p.is_tcp]
    assert len(whole) == 1
    assert whole[0].tcp.payload == payload
