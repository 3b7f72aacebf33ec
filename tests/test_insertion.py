"""Insertion-packet crafting tests: each discrepancy produces exactly the
on-wire anomaly it claims."""

import random

import pytest

from repro.core.strategy_base import ConnectionContext
from repro.netstack.options import KIND_MD5SIG, KIND_TIMESTAMP
from repro.netstack.packet import ACK, RST
from repro.netstack.wire import tcp_checksum_valid, wire_lengths
from repro.strategies.insertion import (
    Discrepancy,
    apply_discrepancy,
    junk_payload,
)

from repro.experiments.lab import CLIENT_IP, SERVER_IP


@pytest.fixture
def ctx():
    context = ConnectionContext(
        src_ip=CLIENT_IP, src_port=40000, dst_ip=SERVER_IP, dst_port=80,
        clock=None, rng=random.Random(0), raw_send=lambda p: None,
        insertion_ttl=9,
    )
    context.snd_nxt = 5000
    context.rcv_nxt = 9000
    context.last_tsval_sent = 7_000_000
    return context


def _data_insertion(ctx, discrepancy):
    """A one-byte data packet on ``ctx``'s connection with
    ``discrepancy`` applied."""
    return apply_discrepancy(
        ctx.make_packet(flags=ACK, payload=b"x"), discrepancy, ctx
    )


class TestDiscrepancies:
    def test_low_ttl(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.LOW_TTL)
        assert packet.ttl == 9

    def test_bad_checksum_is_really_wrong(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.BAD_CHECKSUM)
        assert packet.tcp.checksum_override is not None
        assert not tcp_checksum_valid(packet.tcp, CLIENT_IP, SERVER_IP)

    def test_bad_ack_outside_acceptable_range(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.BAD_ACK)
        delta = (packet.tcp.ack - ctx.rcv_nxt) & 0xFFFFFFFF
        assert delta >= 0x10000000
        assert packet.tcp.has_ack

    def test_no_flag_clears_everything(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.NO_FLAG)
        assert packet.tcp.flags == 0
        assert packet.tcp.ack == 0

    def test_md5_option_attached(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.MD5_OPTION)
        assert packet.tcp.find_option(KIND_MD5SIG) is not None

    def test_old_timestamp_is_older_than_last_sent(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.OLD_TIMESTAMP)
        option = packet.tcp.find_option(KIND_TIMESTAMP)
        assert option is not None
        assert ((ctx.last_tsval_sent - option.tsval) & 0xFFFFFFFF) >= 1_000_000

    def test_short_header(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.SHORT_HEADER)
        assert packet.tcp.data_offset_override == 4

    def test_oversize_ip_length(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.OVERSIZE_IP_LENGTH)
        emitted, actual = wire_lengths(packet)
        assert emitted > actual

    def test_rst_bad_ack_forces_flags(self, ctx):
        packet = apply_discrepancy(
            ctx.make_packet(flags=RST), Discrepancy.RST_BAD_ACK, ctx
        )
        assert packet.tcp.flags == RST | ACK

    def test_original_packet_untouched(self, ctx):
        base = ctx.make_packet(flags=ACK, payload=b"x")
        apply_discrepancy(base, Discrepancy.BAD_CHECKSUM, ctx)
        assert base.tcp.checksum_override is None

    def test_discrepancy_recorded_in_meta(self, ctx):
        packet = _data_insertion(ctx, Discrepancy.MD5_OPTION)
        assert packet.meta["discrepancy"] == "md5"


class TestHelpers:
    def test_junk_payload_length_and_cleanliness(self, ctx):
        junk = junk_payload(ctx, 64)
        assert len(junk) == 64
        assert b"ultrasurf" not in junk
