"""Flow-table LRU management and device resource accounting.

The device bounds its concurrent TCBs (§2.1: stateful tracking is
costly); these tests pin the eviction order, the NB1-consistent
"evicted flow needs a fresh TCB-creating packet" semantics, the
between-trial counter reset, and the ``stats()`` snapshot.
"""

import random

import pytest

from repro.netstack.packet import ACK, FIN, IPPacket, SYN, TCPSegment
from repro.netsim.path import Direction
from repro.netsim.simclock import SimClock
from repro.gfw.device import GFWDevice
from repro.gfw.flow import FlowTable, GFWFlow, GFWFlowState, connection_key
from repro.gfw.models import evolved_config

from repro.experiments.lab import fetch, mini_topology
from helpers import detections

CLIENT_IP = "10.1.0.1"
SERVER_IP = "93.184.216.34"


def make_flow(port: int) -> GFWFlow:
    return GFWFlow(
        believed_client=(CLIENT_IP, port),
        believed_server=(SERVER_IP, 80),
        state=GFWFlowState.ESTABLISHED,
    )


def make_device(max_flows: int = 4096) -> GFWDevice:
    config = evolved_config(max_flows=max_flows)
    config.miss_probability = 0.0
    device = GFWDevice(
        "table-test", hop=3, config=config, clock=SimClock(),
        rng=random.Random(11),
    )
    device.cluster.miss_probability = 0.0
    return device


def syn_packet(port: int, seq: int = 1000) -> IPPacket:
    segment = TCPSegment(src_port=port, dst_port=80, seq=seq, flags=SYN)
    return IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)


def data_packet(port: int, seq: int, payload: bytes) -> IPPacket:
    segment = TCPSegment(
        src_port=port, dst_port=80, seq=seq, ack=1, flags=ACK, payload=payload
    )
    return IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)


class TestFlowTableLRU:
    def test_eviction_order_is_least_recently_touched(self):
        table = FlowTable(capacity=3)
        keys = [connection_key((CLIENT_IP, p), (SERVER_IP, 80)) for p in (1, 2, 3, 4)]
        for key, port in zip(keys[:3], (1, 2, 3)):
            table[key] = make_flow(port)
        # Touch key 0 so key 1 becomes the least recently used.
        assert table.get(keys[0]) is not None
        table[keys[3]] = make_flow(4)
        assert keys[1] not in table
        assert keys[0] in table and keys[2] in table and keys[3] in table
        assert table.flows_evicted == 1
        assert table.flows_created == 4
        assert table.peak_tracked == 3

    def test_overwrite_does_not_evict(self):
        table = FlowTable(capacity=2)
        key_a = connection_key((CLIENT_IP, 1), (SERVER_IP, 80))
        key_b = connection_key((CLIENT_IP, 2), (SERVER_IP, 80))
        table[key_a] = make_flow(1)
        table[key_b] = make_flow(2)
        table[key_a] = make_flow(1)  # re-insert under the existing key
        assert len(table) == 2
        assert table.flows_evicted == 0
        # The overwrite counted as a touch: key_b is now least recent.
        table[connection_key((CLIENT_IP, 3), (SERVER_IP, 80))] = make_flow(3)
        assert key_b not in table and key_a in table

    def test_dict_shaped_api(self):
        table = FlowTable(capacity=4)
        key = connection_key((CLIENT_IP, 5), (SERVER_IP, 80))
        assert not table  # empty table is falsy (bench guards rely on it)
        table[key] = make_flow(5)
        assert table
        assert table[key] is table.get(key)
        assert list(table.values())[0].believed_client == (CLIENT_IP, 5)
        assert list(table) == [key]
        del table[key]
        assert key not in table
        with pytest.raises(KeyError):
            table[key]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)


class TestDeviceEviction:
    def test_device_evicts_and_forgets(self):
        device = make_device(max_flows=2)
        for port in (4001, 4002, 4003):
            device.observe(syn_packet(port), Direction.CLIENT_TO_SERVER, 0.0)
        assert len(device.flows) == 2
        assert device.flows.flows_evicted == 1
        # The evicted flow (port 4001, least recently touched) is gone:
        assert device.flow_for(CLIENT_IP, 4001, SERVER_IP, 80) is None

    def test_data_on_evicted_flow_is_invisible(self):
        """Post-eviction the connection does not exist for the censor —
        data packets neither inspect nor recreate a TCB (matching the
        'no TCB, no inspection' rule)."""
        device = make_device(max_flows=1)
        device.observe(syn_packet(5001), Direction.CLIENT_TO_SERVER, 0.0)
        device.observe(syn_packet(5002), Direction.CLIENT_TO_SERVER, 0.0)  # evicts
        device.observe(
            data_packet(5001, seq=1001, payload=b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n"),
            Direction.CLIENT_TO_SERVER,
            0.1,
        )
        assert device.flow_for(CLIENT_IP, 5001, SERVER_IP, 80) is None
        assert not device.detections

    def test_reinsertion_after_eviction_creates_fresh_tcb(self):
        """A new SYN after eviction builds a brand-new TCB (NB1-family
        semantics): old reassembly progress is gone."""
        device = make_device(max_flows=1)
        device.observe(syn_packet(6001, seq=1000), Direction.CLIENT_TO_SERVER, 0.0)
        first = device.flow_for(CLIENT_IP, 6001, SERVER_IP, 80)
        device.observe(
            data_packet(6001, seq=1001, payload=b"GET /?q=ultra"),
            Direction.CLIENT_TO_SERVER,
            0.1,
        )
        device.observe(syn_packet(6002), Direction.CLIENT_TO_SERVER, 0.2)  # evicts
        device.observe(syn_packet(6001, seq=9000), Direction.CLIENT_TO_SERVER, 0.3)
        fresh = device.flow_for(CLIENT_IP, 6001, SERVER_IP, 80)
        assert fresh is not None and fresh is not first
        assert fresh.client_next_seq == 9001
        assert fresh.syn_count == 1
        # The half-fed keyword from the first incarnation is forgotten:
        device.observe(
            data_packet(6001, seq=9001, payload=b"surf HTTP/1.1\r\n\r\n"),
            Direction.CLIENT_TO_SERVER,
            0.4,
        )
        assert not device.detections


def fin_packet(port: int, seq: int) -> IPPacket:
    segment = TCPSegment(src_port=port, dst_port=80, seq=seq, ack=1, flags=FIN | ACK)
    return IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=segment)


class TestEvictionSplit:
    """Evictions-while-active vs. evictions-after-FIN (fleet accounting)."""

    def test_table_splits_active_and_after_fin(self):
        from repro.telemetry import get_registry

        registry = get_registry()
        active_before = registry.counter_value("gfw.flows_evicted_active")
        fin_before = registry.counter_value("gfw.flows_evicted_after_fin")
        table = FlowTable(capacity=2)
        finished = make_flow(1)
        finished.fin_seen = True
        table[connection_key((CLIENT_IP, 1), (SERVER_IP, 80))] = finished
        table[connection_key((CLIENT_IP, 2), (SERVER_IP, 80))] = make_flow(2)
        table[connection_key((CLIENT_IP, 3), (SERVER_IP, 80))] = make_flow(3)
        # The finished flow went first (LRU) and counted as after-FIN.
        assert table.flows_evicted_after_fin == 1
        assert table.flows_evicted_active == 0
        table[connection_key((CLIENT_IP, 4), (SERVER_IP, 80))] = make_flow(4)
        # The second eviction lost a mid-stream flow.
        assert table.flows_evicted_active == 1
        assert table.flows_evicted == 2
        # The registry mirrors the split, process-lifetime.
        assert registry.counter_value("gfw.flows_evicted_active") == active_before + 1
        assert registry.counter_value("gfw.flows_evicted_after_fin") == fin_before + 1

    def test_on_evict_callback_names_the_lost_flow(self):
        table = FlowTable(capacity=1)
        seen = []
        table.on_evict = lambda key, flow: seen.append((key, flow))
        key_a = connection_key((CLIENT_IP, 1), (SERVER_IP, 80))
        table[key_a] = make_flow(1)
        table[connection_key((CLIENT_IP, 2), (SERVER_IP, 80))] = make_flow(2)
        assert len(seen) == 1
        assert seen[0][0] == key_a
        assert seen[0][1].believed_client == (CLIENT_IP, 1)
        # Overwrites under an existing key never fire the callback.
        key_b = connection_key((CLIENT_IP, 2), (SERVER_IP, 80))
        table[key_b] = make_flow(2)
        assert len(seen) == 1

    def test_device_fin_latches_without_teardown(self):
        """Under the evolved model (``fin_tears_down=False``) the TCB
        survives the FIN but remembers it, so a later capacity eviction
        counts as after-FIN bookkeeping, not a mid-stream loss."""
        device = make_device(max_flows=1)
        device.observe(syn_packet(7001), Direction.CLIENT_TO_SERVER, 0.0)
        device.observe(fin_packet(7001, seq=1001), Direction.CLIENT_TO_SERVER, 0.1)
        flow = device.flow_for(CLIENT_IP, 7001, SERVER_IP, 80)
        assert flow is not None and flow.fin_seen
        device.observe(syn_packet(7002), Direction.CLIENT_TO_SERVER, 0.2)  # evicts
        assert device.flows.flows_evicted_after_fin == 1
        assert device.flows.flows_evicted_active == 0
        assert device.stats()["flows_evicted_after_fin"] == 1

    def test_old_model_fin_still_tears_down(self):
        config = evolved_config(max_flows=4, fin_tears_down=True)
        config.miss_probability = 0.0
        device = GFWDevice(
            "fin-test", hop=3, config=config, clock=SimClock(),
            rng=random.Random(11),
        )
        device.observe(syn_packet(7101), Direction.CLIENT_TO_SERVER, 0.0)
        device.observe(fin_packet(7101, seq=1001), Direction.CLIENT_TO_SERVER, 0.1)
        assert device.flow_for(CLIENT_IP, 7101, SERVER_IP, 80) is None

    def test_namespaced_keys_keep_identical_four_tuples_apart(self):
        """Shared-device batch mode: two devices with different
        ``flow_namespace`` values share one table without aliasing the
        same four-tuple."""
        shared = FlowTable(capacity=8)
        devices = []
        for namespace in (0, 1):
            device = make_device()
            device.flows = shared
            device.flow_namespace = namespace
            devices.append(device)
        for device in devices:
            device.observe(syn_packet(7201), Direction.CLIENT_TO_SERVER, 0.0)
        assert shared.flows_created == 2
        assert len(shared) == 2
        assert devices[0].flow_for(CLIENT_IP, 7201, SERVER_IP, 80) is None

    def test_eviction_event_carries_namespace(self):
        from repro.telemetry import EVENTS, observing

        device = make_device(max_flows=1)
        device.flow_namespace = 42
        with observing(EVENTS) as bus:
            device.observe(syn_packet(7301), Direction.CLIENT_TO_SERVER, 0.0)
            device.observe(syn_packet(7302), Direction.CLIENT_TO_SERVER, 0.1)
            events = [e for e in bus.events() if e.kind == "flow_evicted"]
        assert len(events) == 1
        assert events[0].fields["namespace"] == 42
        assert events[0].fields["after_fin"] is False


class TestDeviceStats:
    def test_stats_snapshot_after_detection(self):
        world = mini_topology()
        fetch(world)
        assert detections(world) == 1
        stats = world.gfw.stats()
        assert stats["flows_tracked"] >= 1
        assert stats["flows_created"] >= 1
        assert stats["peak_flows_tracked"] >= stats["flows_tracked"] - 1
        assert stats["bytes_inspected"] > 0
        assert stats["matcher_state_bytes"] > 0
        assert stats["detections"] == 1
        assert stats["resets_injected"] > 0
        assert stats["flow_table_capacity"] == world.gfw.config.max_flows
