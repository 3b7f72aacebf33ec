"""Per-kernel behaviour divergence tests — the §5.3 cross-validation
findings, asserted stack-by-stack."""

import pytest

from repro.netstack.options import MD5SignatureOption
from repro.netstack.packet import ACK, RST, SYN, seq_add
from repro.tcp.profiles import (
    ALL_PROFILES,
    LINUX_2_4_37,
    LINUX_2_6_34,
    LINUX_3_14,
    LINUX_4_0,
    LINUX_4_4,
    profile_by_name,
)
from repro.tcp.tcb import TCPState

from repro.experiments.lab import CLIENT_IP, SERVER_IP, mini_topology


def _established_world(profile):
    world = mini_topology(with_gfw=False, server_profile=profile)
    connection = world.client_tcp.connect(SERVER_IP, 80)
    world.run(1.0)
    server = world.server_tcp.connections[(80, CLIENT_IP, connection.tcb.local_port)]
    assert server.state is TCPState.ESTABLISHED
    return world, connection, server


class TestProfileLookup:
    def test_all_profiles_resolvable(self):
        for profile in ALL_PROFILES:
            assert profile_by_name(profile.name) is profile

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            profile_by_name("linux-9.99")

    def test_describe_mentions_name(self):
        assert "linux-4.4" in LINUX_4_4.describe()


class TestSynInEstablished:
    """§5.3 finding 1: 4.x challenge-ACKs, 3.14 silently ignores,
    pre-3.x resets per RFC 793."""

    def _fire_syn(self, profile):
        world, connection, server = _established_world(profile)
        syn = connection.make_packet(flags=SYN, seq=connection.tcb.snd_nxt, ack=0)
        world.client.send_raw(syn)
        world.run(0.5)
        return server

    def test_linux_44_challenge_acks(self):
        server = self._fire_syn(LINUX_4_4)
        assert server.state is TCPState.ESTABLISHED
        assert server.challenge_acks_sent == 1

    def test_linux_40_challenge_acks(self):
        server = self._fire_syn(LINUX_4_0)
        assert server.challenge_acks_sent == 1

    def test_linux_314_silently_ignores(self):
        server = self._fire_syn(LINUX_3_14)
        assert server.state is TCPState.ESTABLISHED
        assert server.challenge_acks_sent == 0

    def test_linux_2634_resets_on_in_window_syn(self):
        server = self._fire_syn(LINUX_2_6_34)
        assert server.state is TCPState.CLOSED

    def test_old_kernel_ignores_out_of_window_syn(self):
        """§5.2's caution: the Resync+Desync fake SYN must be out of the
        server's window precisely so old kernels don't reset."""
        world, connection, server = _established_world(LINUX_2_6_34)
        syn = connection.make_packet(
            flags=SYN, seq=seq_add(connection.tcb.snd_nxt, 0x30000000), ack=0
        )
        world.client.send_raw(syn)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED


class TestNoAckFlagData:
    """§5.3 finding 2: 2.6.34/2.4.37 accept data without the ACK flag."""

    @pytest.mark.parametrize(
        "profile,accepted",
        [
            (LINUX_4_4, False),
            (LINUX_3_14, False),
            (LINUX_2_6_34, True),
            (LINUX_2_4_37, True),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_no_flag_acceptance(self, profile, accepted):
        world, connection, server = _established_world(profile)
        packet = connection.make_packet(flags=0, payload=b"NOFLAGS")
        world.client.send_raw(packet)
        world.run(0.5)
        assert (bytes(server.application_data) == b"NOFLAGS") == accepted


class TestMD5Option:
    """§5.3 finding 3: 2.4.37 predates RFC 2385 and accepts MD5-optioned
    packets."""

    @pytest.mark.parametrize(
        "profile,accepted",
        [(LINUX_4_4, False), (LINUX_2_6_34, False), (LINUX_2_4_37, True)],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_md5_data_acceptance(self, profile, accepted):
        world, connection, server = _established_world(profile)
        packet = connection.make_packet(flags=ACK, payload=b"MD5DATA")
        packet.tcp.options.append(MD5SignatureOption())
        world.client.send_raw(packet)
        world.run(0.5)
        assert (bytes(server.application_data) == b"MD5DATA") == accepted

    def test_md5_rst_resets_2437(self):
        """The paper's caveat: MD5-vehicle RSTs do reset pre-RFC2385
        servers — a Failure 1 source for the improved strategies."""
        world, connection, server = _established_world(LINUX_2_4_37)
        rst = connection.make_packet(flags=RST, seq=connection.tcb.snd_nxt, ack=0)
        rst.tcp.options.append(MD5SignatureOption())
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.CLOSED

    def test_md5_rst_ignored_by_44(self):
        world, connection, server = _established_world(LINUX_4_4)
        rst = connection.make_packet(flags=RST, seq=connection.tcb.snd_nxt, ack=0)
        rst.tcp.options.append(MD5SignatureOption())
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED


class TestRSTPolicies:
    def test_old_kernel_accepts_in_window_inexact_rst(self):
        world, connection, server = _established_world(LINUX_2_6_34)
        rst = connection.make_packet(
            flags=RST, seq=seq_add(connection.tcb.snd_nxt, 100), ack=0
        )
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.CLOSED

    def test_modern_kernel_challenges_same_rst(self):
        world, connection, server = _established_world(LINUX_4_4)
        rst = connection.make_packet(
            flags=RST, seq=seq_add(connection.tcb.snd_nxt, 100), ack=0
        )
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED


class TestBadAckAcceptance:
    def test_old_kernel_accepts_bad_ack_data(self):
        """The §3.4 "variations in server implementations" Failure 1."""
        world, connection, server = _established_world(LINUX_2_4_37)
        packet = connection.make_packet(
            flags=ACK, payload=b"JUNK",
            ack=seq_add(connection.tcb.rcv_nxt, 0x30000000),
        )
        world.client.send_raw(packet)
        world.run(0.5)
        assert bytes(server.application_data) == b"JUNK"

    def test_timestampless_kernel_ignores_paws(self):
        """2.4.37 negotiates no timestamps, so stale-TSval packets are
        not filtered — the old-timestamp vehicle fails against it."""
        from repro.netstack.options import TimestampOption

        world, connection, server = _established_world(LINUX_2_4_37)
        assert not server.tcb.timestamps_enabled
        packet = connection.make_packet(flags=ACK, payload=b"STALE")
        packet.tcp.options.append(TimestampOption(tsval=1))
        world.client.send_raw(packet)
        world.run(0.5)
        assert bytes(server.application_data) == b"STALE"
