"""Host handler/egress mechanics and the table-rendering utilities."""

import pytest

from repro.netstack.fragment import fragment_packet
from repro.netstack.packet import ACK, tcp_packet
from repro.netsim import Host, Network, Path, SimClock
from repro.experiments.outcomes import Outcome, VerdictDistribution
from repro.experiments.runner import PerVantageRates
from repro.experiments.tables import (
    format_rate_line,
    format_table4,
    format_table6,
    pct,
    render_table,
)

A, B = "10.0.0.1", "10.0.0.9"


def _pair():
    clock = SimClock()
    network = Network(clock=clock)
    a = network.add_host(Host(A, "a"))
    b = network.add_host(Host(B, "b"))
    network.add_path(Path(A, B, hop_count=4))
    return clock, a, b


class TestHostHandlers:
    def test_handlers_run_in_order_until_claimed(self):
        clock, a, b = _pair()
        calls = []
        b.register_handler(lambda p, now: (calls.append("first"), False)[1])
        b.register_handler(lambda p, now: (calls.append("second"), True)[1])
        b.register_handler(lambda p, now: (calls.append("third"), True)[1])
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert calls == ["first", "second"]

    def test_prepend_puts_handler_first(self):
        clock, a, b = _pair()
        calls = []
        b.register_handler(lambda p, now: (calls.append("old"), True)[1])
        b.register_handler(lambda p, now: (calls.append("new"), False)[1],
                           prepend=True)
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert calls == ["new", "old"]

    def test_unclaimed_counter(self):
        clock, a, b = _pair()
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert b.unclaimed_packets == 1

    def test_host_reassembles_fragments_before_dispatch(self):
        clock, a, b = _pair()
        seen = []
        b.register_handler(lambda p, now: (seen.append(p), True)[1])
        packet = tcp_packet(A, B, 1, 2, flags=ACK, payload=b"Z" * 48)
        for fragment in fragment_packet(packet, 24):
            a.send(fragment)
        clock.run()
        assert len(seen) == 1
        assert seen[0].tcp.payload == b"Z" * 48


class TestEgressFilters:
    def test_filter_can_multiply_packets(self):
        clock, a, b = _pair()
        seen = []
        b.register_handler(lambda p, now: (seen.append(p), True)[1])
        a.add_egress_filter(lambda p, now: [p, p.copy()])
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert len(seen) == 2

    def test_filter_can_swallow_packets(self):
        clock, a, b = _pair()
        seen = []
        b.register_handler(lambda p, now: (seen.append(p), True)[1])
        a.add_egress_filter(lambda p, now: [])
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert seen == []

    def test_send_raw_bypasses_filters(self):
        clock, a, b = _pair()
        seen = []
        b.register_handler(lambda p, now: (seen.append(p), True)[1])
        a.add_egress_filter(lambda p, now: [])
        a.send_raw(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert len(seen) == 1

    def test_filters_chain_in_order(self):
        clock, a, b = _pair()
        order = []
        a.add_egress_filter(lambda p, now: (order.append(1), [p])[1])
        a.add_egress_filter(lambda p, now: (order.append(2), [p])[1])
        a.send(tcp_packet(A, B, 1, 2, flags=ACK))
        clock.run()
        assert order == [1, 2]


class TestTableRendering:
    def test_render_table_alignment(self):
        text = render_table(["A", "Blah"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # uniform width

    def test_render_table_title(self):
        text = render_table(["H"], [["v"]], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_pct_format(self):
        assert pct(12.345) == "12.3%"

    def test_format_rate_line(self):
        triple = VerdictDistribution.from_outcomes([Outcome.SUCCESS, Outcome.FAILURE2])
        line = format_rate_line("test", triple)
        assert "success= 50.0%" in line
        assert "(n=2)" in line

    def test_format_table4_min_max_avg(self):
        per_vantage = PerVantageRates()
        per_vantage.rates["a"] = VerdictDistribution(success=9, failure1=1)
        per_vantage.rates["b"] = VerdictDistribution(success=7, failure2=3)
        text = format_table4([("Strategy X", per_vantage)])
        row = [cell.strip() for cell in text.splitlines()[-1].split("|")]
        assert row[1:4] == ["70.0%", "90.0%", "80.0%"]  # success rates
        assert row[4:7] == ["0.0%", "10.0%", "5.0%"]  # failure 1
        assert row[7:10] == ["0.0%", "30.0%", "15.0%"]  # failure 2

    def test_format_table6(self):
        text = format_table6([("Dyn 1", "216.146.35.35", 0.99, 0.93)])
        assert "99.0%" in text and "93.0%" in text

    def test_per_vantage_rates_empty(self):
        assert PerVantageRates().success_min_max_avg() == (0.0, 0.0, 0.0)
