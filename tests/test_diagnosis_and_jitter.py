"""Failure diagnosis and delay-jitter reordering tests."""

import random

import pytest

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    CLEAN_ROOM,
    DEFAULT_CALIBRATION,
    Outcome,
    outside_china_catalog,
    run_http_trial,
    vantage_by_name,
)
from repro.netsim import Host, Network, Path, SimClock
from repro.netstack.packet import ACK, tcp_packet

from repro.experiments.lab import SERVER_IP, mini_topology


class TestDiagnosis:
    def test_success_has_no_diagnosis(self):
        record = run_http_trial(
            CHINA_VANTAGE_POINTS[1], outside_china_catalog()[0],
            "tcb-teardown+tcb-reversal", CLEAN_ROOM, seed=1,
        )
        assert record.outcome is Outcome.SUCCESS
        assert record.diagnosis is None

    def test_detection_diagnosed_with_reset_type(self):
        record = run_http_trial(
            CHINA_VANTAGE_POINTS[1], outside_china_catalog()[0],
            "none", CLEAN_ROOM, seed=1,
        )
        assert record.outcome is Outcome.FAILURE2
        assert record.diagnosis.startswith("keyword-detected")
        assert "type" in record.diagnosis

    def test_firewall_blackhole_diagnosed(self):
        """Force a firewall and a strategy whose RSTs poison it."""
        from repro.experiments.scenarios import build_scenario
        from repro.core.intang import INTANG
        from repro.apps.http import HTTPClient
        from repro.experiments.runner import (
            SENSITIVE_PATH,
            classify,
            diagnose_failure,
        )

        scenario = build_scenario(
            vantage=vantage_by_name("aliyun-shanghai"),
            website=outside_china_catalog()[0],
            calibration=CLEAN_ROOM, seed=2,
            force_firewall=True,
        )
        INTANG(
            host=scenario.client, tcp_host=scenario.client_tcp,
            clock=scenario.clock, network=scenario.network,
            fixed_strategy="improved-tcb-teardown",
            rng=random.Random(1),
        )
        _, exchange = HTTPClient(scenario.client_tcp).get(
            scenario.website.ip, host="x", path=SENSITIVE_PATH
        )
        scenario.run()
        outcome = classify(exchange.got_response, scenario.gfw_resets_received())
        assert outcome is Outcome.FAILURE1
        assert diagnose_failure(scenario, outcome) == "client-side-firewall-blackhole"

    def test_failure_causes_aggregate_sensibly(self):
        """Over the default environment, every failed trial gets some
        attribution and the population is dominated by known causes."""
        causes = {}
        sites = outside_china_catalog()[:10]
        for v_index, vantage in enumerate(CHINA_VANTAGE_POINTS):
            for w_index, website in enumerate(sites):
                record = run_http_trial(
                    vantage, website, "improved-tcb-teardown",
                    DEFAULT_CALIBRATION, seed=v_index * 100 + w_index,
                )
                if record.outcome is not Outcome.SUCCESS:
                    causes[record.diagnosis] = causes.get(record.diagnosis, 0) + 1
        assert all(cause is not None for cause in causes)


class TestJitter:
    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            Path("1.1.1.1", "2.2.2.2", jitter=1.5)

    def test_jitter_reorders_packets(self):
        clock = SimClock()
        network = Network(clock=clock, rng=random.Random(3))
        received = []

        class Sink(Host):
            def __init__(self, ip):
                super().__init__(ip)
                self.register_handler(
                    lambda p, now: (received.append(p.tcp.seq), True)[1]
                )

        a = network.add_host(Host("10.0.0.1"))
        b = network.add_host(Sink("10.0.0.9"))
        network.add_path(Path("10.0.0.1", "10.0.0.9", hop_count=10, jitter=0.9))
        for seq in range(40):
            a.send(tcp_packet("10.0.0.1", "10.0.0.9", 1, 2, flags=ACK,
                              seq=seq, payload=b"x"))
        clock.run()
        assert len(received) == 40
        assert received != sorted(received)  # at least one reorder

    def test_tcp_transfer_survives_heavy_jitter(self):
        """Endpoint reassembly absorbs in-flight reordering."""
        world = mini_topology(with_gfw=False, serve_http=False, seed=6)
        world.path.jitter = 0.8
        received = []
        world.server_tcp.listen(
            80, lambda conn: setattr(conn, "on_data",
                                     lambda c, d: received.append(d))
        )
        payload = bytes(range(256)) * 8
        connection = world.client_tcp.connect(SERVER_IP, 80)
        connection.on_established = lambda c: c.send(payload, segment_size=64)
        world.run(10.0)
        assert b"".join(received) == payload

    def test_zero_jitter_is_fifo(self):
        clock = SimClock()
        network = Network(clock=clock, rng=random.Random(3))
        received = []

        class Sink(Host):
            def __init__(self, ip):
                super().__init__(ip)
                self.register_handler(
                    lambda p, now: (received.append(p.tcp.seq), True)[1]
                )

        a = network.add_host(Host("10.0.0.1"))
        network.add_host(Sink("10.0.0.9"))
        network.add_path(Path("10.0.0.1", "10.0.0.9", hop_count=10))
        for seq in range(20):
            a.send(tcp_packet("10.0.0.1", "10.0.0.9", 1, 2, flags=ACK,
                              seq=seq, payload=b"x"))
        clock.run()
        assert received == sorted(received)
