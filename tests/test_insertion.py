"""Insertion-packet crafting tests: each discrepancy produces exactly the
on-wire anomaly it claims, and the Table 5 preference map is enforced."""

import random

import pytest

from repro.core.strategy_base import ConnectionContext
from repro.netstack.options import KIND_MD5SIG, KIND_TIMESTAMP
from repro.netstack.packet import ACK, RST, SYN
from repro.netstack.wire import tcp_checksum_valid, wire_lengths
from repro.strategies.insertion import (
    Discrepancy,
    MIDDLEBOX_SAFE,
    PREFERRED_DISCREPANCIES,
    apply_discrepancy,
    craft_insertion,
    junk_payload,
    packet_type_of,
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


class TestDiscrepancies:
    def test_low_ttl(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.LOW_TTL, payload=b"x")
        assert packet.ttl == 9

    def test_bad_checksum_is_really_wrong(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.BAD_CHECKSUM, payload=b"x")
        assert packet.tcp.checksum_override is not None
        assert not tcp_checksum_valid(packet.tcp, CLIENT_IP, SERVER_IP)

    def test_bad_ack_outside_acceptable_range(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.BAD_ACK, payload=b"x")
        delta = (packet.tcp.ack - ctx.rcv_nxt) & 0xFFFFFFFF
        assert delta >= 0x10000000
        assert packet.tcp.has_ack

    def test_no_flag_clears_everything(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.NO_FLAG, payload=b"x")
        assert packet.tcp.flags == 0
        assert packet.tcp.ack == 0

    def test_md5_option_attached(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.MD5_OPTION, payload=b"x")
        assert packet.tcp.find_option(KIND_MD5SIG) is not None

    def test_old_timestamp_is_older_than_last_sent(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.OLD_TIMESTAMP, payload=b"x")
        option = packet.tcp.find_option(KIND_TIMESTAMP)
        assert option is not None
        assert ((ctx.last_tsval_sent - option.tsval) & 0xFFFFFFFF) >= 1_000_000

    def test_short_header(self, ctx):
        packet = craft_insertion(ctx, ACK, Discrepancy.SHORT_HEADER, payload=b"x")
        assert packet.tcp.data_offset_override == 4

    def test_oversize_ip_length(self, ctx):
        packet = craft_insertion(
            ctx, ACK, Discrepancy.OVERSIZE_IP_LENGTH, payload=b"x"
        )
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
        packet = craft_insertion(ctx, ACK, Discrepancy.MD5_OPTION, payload=b"x")
        assert packet.meta["discrepancy"] == "md5"


class TestTable5Preferences:
    def test_preference_map_matches_paper(self):
        assert PREFERRED_DISCREPANCIES["SYN"] == (Discrepancy.LOW_TTL,)
        assert Discrepancy.MD5_OPTION in PREFERRED_DISCREPANCIES["RST"]
        assert Discrepancy.BAD_ACK in PREFERRED_DISCREPANCIES["DATA"]
        assert Discrepancy.OLD_TIMESTAMP in PREFERRED_DISCREPANCIES["DATA"]

    def test_syn_cannot_use_md5(self, ctx):
        with pytest.raises(ValueError):
            craft_insertion(ctx, SYN, Discrepancy.MD5_OPTION)

    def test_rst_cannot_use_old_timestamp(self, ctx):
        """§5.3: a stale-timestamp RST still resets an ESTABLISHED server."""
        with pytest.raises(ValueError):
            craft_insertion(ctx, RST, Discrepancy.OLD_TIMESTAMP)

    def test_rst_may_use_md5(self, ctx):
        packet = craft_insertion(ctx, RST, Discrepancy.MD5_OPTION)
        assert packet.tcp.is_rst

    def test_universal_discrepancies_always_allowed(self, ctx):
        packet = craft_insertion(ctx, SYN, Discrepancy.BAD_CHECKSUM)
        assert packet.tcp.is_syn

    def test_middlebox_safe_set(self):
        assert Discrepancy.LOW_TTL not in MIDDLEBOX_SAFE
        assert Discrepancy.MD5_OPTION in MIDDLEBOX_SAFE


class TestHelpers:
    def test_packet_type_of(self, ctx):
        assert packet_type_of(ctx.make_packet(flags=SYN)) == "SYN"
        assert packet_type_of(ctx.make_packet(flags=RST)) == "RST"
        assert packet_type_of(ctx.make_packet(flags=ACK, payload=b"d")) == "DATA"

    def test_junk_payload_length_and_cleanliness(self, ctx):
        junk = junk_payload(ctx, 64)
        assert len(junk) == 64
        assert b"ultrasurf" not in junk
