"""TCP state-machine tests: handshake, data, close, resets, and every
ignore path of §5.3 as seen from a Linux-4.4-like server."""

from repro.netstack.options import MD5SignatureOption, TimestampOption
from repro.netstack.packet import ACK, FIN, IPPacket, RST, SYN, seq_add
from repro.tcp.stack import CloseReason, DropReason
from repro.tcp.tcb import TCPState

from repro.experiments.lab import CLIENT_IP, SERVER_IP, fetch, mini_topology


def _connect(world):
    connection = world.client_tcp.connect(SERVER_IP, 80)
    world.run(1.0)
    return connection


def _server_conn(world, client_conn):
    key = (80, CLIENT_IP, client_conn.tcb.local_port)
    return world.server_tcp.connections[key]


class TestHandshake:
    def test_three_way_handshake(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        assert connection.state is TCPState.ESTABLISHED
        assert _server_conn(world, connection).state is TCPState.ESTABLISHED

    def test_isn_randomized(self):
        world = mini_topology(with_gfw=False)
        a = world.client_tcp.connect(SERVER_IP, 80)
        b = world.client_tcp.connect(SERVER_IP, 80)
        assert a.tcb.iss != b.tcb.iss

    def test_ephemeral_ports_distinct(self):
        world = mini_topology(with_gfw=False)
        a = world.client_tcp.connect(SERVER_IP, 80)
        b = world.client_tcp.connect(SERVER_IP, 80)
        assert a.tcb.local_port != b.tcb.local_port

    def test_syn_to_closed_port_refused(self):
        world = mini_topology(with_gfw=False)
        connection = world.client_tcp.connect(SERVER_IP, 4444)
        world.run(1.0)
        assert connection.state is TCPState.CLOSED
        assert connection.close_reason is CloseReason.REFUSED

    def test_timestamps_negotiated(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        assert connection.tcb.timestamps_enabled
        assert _server_conn(world, connection).tcb.timestamps_enabled

    def test_syn_retransmission_on_loss(self):
        world = mini_topology(with_gfw=False, loss_rate=0.35, seed=9)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(6.0)
        assert connection.state is TCPState.ESTABLISHED

    def test_duplicate_syn_in_syn_recv_gets_synack_again(self):
        """A retransmitted SYN (lost SYN/ACK) re-elicits the SYN/ACK."""
        from dataclasses import replace

        from repro.netstack.packet import TCPSegment

        world = mini_topology(with_gfw=False)
        # The raw-crafted handshake below has no client connection, so
        # keep the client stack from RST-ing the "stray" SYN/ACKs.
        world.client_tcp.profile = replace(
            world.client_tcp.profile, rst_on_stray_packets=False
        )
        synacks = []
        world.client.register_handler(
            lambda p, now: (
                synacks.append(p) if p.is_tcp and p.tcp.is_synack else None,
                False,
            )[1],
            prepend=True,
        )
        syn = TCPSegment(src_port=7777, dst_port=80, seq=1000, flags=SYN)
        world.client.send_raw(IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=syn))
        world.run(0.3)
        world.client.send_raw(
            IPPacket(src=CLIENT_IP, dst=SERVER_IP, payload=syn.copy())
        )
        world.run(0.3)
        assert len(synacks) == 2
        assert synacks[0].tcp.seq == synacks[1].tcp.seq  # same server ISN


class TestDataTransfer:
    def test_request_response(self):
        world = mini_topology(with_gfw=False)
        exchange = fetch(world, path="/hello")
        assert exchange.got_response
        assert exchange.response_status.startswith("HTTP/1.1 200")

    def test_segmentation(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        connection.send(b"A" * 4000, segment_size=1000)
        world.run(2.0)
        server = _server_conn(world, connection)
        assert bytes(server.application_data) == b"A" * 4000

    def test_out_of_order_delivery_reassembled(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        base = connection.tcb.snd_nxt
        tail = connection.make_packet(flags=ACK, seq=seq_add(base, 4), payload=b"WORLD")
        head = connection.make_packet(flags=ACK, seq=base, payload=b"HELO")
        world.client.send_raw(tail)
        world.client.send_raw(head)
        world.run(1.0)
        assert bytes(server.application_data) == b"HELOWORLD"

    def test_data_retransmission_on_loss(self):
        world = mini_topology(with_gfw=False, loss_rate=0.3, seed=21)
        exchange = fetch(world, path="/retry", duration=15.0)
        assert exchange.got_response

    def test_retransmission_timeout_closes_connection(self):
        world = mini_topology(with_gfw=False, loss_rate=1.0)
        connection = world.client_tcp.connect(SERVER_IP, 80)
        world.run(30.0)
        assert connection.state is TCPState.CLOSED
        assert connection.close_reason is CloseReason.TIMEOUT


class TestClose:
    def test_graceful_close_both_sides(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        accepted = []
        world.server_tcp.listen(80, accepted.append)
        connection = _connect(world)
        connection.close()
        world.run(1.0)
        server = accepted[0]
        assert server.state is TCPState.CLOSE_WAIT
        server.close()
        world.run(3.0)
        assert server.state is TCPState.CLOSED
        assert connection.state in (TCPState.TIME_WAIT, TCPState.CLOSED)

    def test_abort_sends_rst(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        connection.abort()
        world.run(1.0)
        assert server.state is TCPState.CLOSED
        assert server.close_reason is CloseReason.RESET

    def test_purge_closed(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        connection.abort()
        world.run(1.0)
        assert world.client_tcp.purge_closed() >= 1


class TestIgnorePaths:
    """Each §5.3 server ignore path, asserted individually."""

    def _established(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        return world, connection, _server_conn(world, connection)

    def _last_drop(self, server):
        assert server.drop_log, "expected a logged silent drop"
        return server.drop_log[-1][0]

    def test_bad_checksum_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(flags=ACK, payload=b"zz")
        packet.tcp.checksum_override = 0x1111
        world.client.send_raw(packet)
        world.run(0.5)
        assert not server.application_data
        assert self._last_drop(server) is DropReason.BAD_CHECKSUM

    def test_unsolicited_md5_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(flags=ACK, payload=b"zz")
        packet.tcp.options.append(MD5SignatureOption())
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.UNSOLICITED_MD5

    def test_no_flag_data_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(flags=0, payload=b"zz")
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.NO_ACK_FLAG

    def test_bad_ack_number_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(
            flags=ACK, payload=b"zz", ack=seq_add(connection.tcb.rcv_nxt, 0x2000000)
        )
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.BAD_ACK_NUMBER

    def test_old_timestamp_dropped_with_dup_ack(self):
        world, connection, server = self._established()
        stale = TimestampOption(tsval=1, tsecr=0)
        packet = connection.make_packet(flags=ACK, payload=b"zz")
        packet.tcp.options.append(stale)
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.PAWS_OLD_TIMESTAMP

    def test_short_header_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(flags=ACK, payload=b"zz")
        packet.tcp.data_offset_override = 3
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.BAD_TCP_HEADER_LEN

    def test_oversize_ip_length_dropped(self):
        world, connection, server = self._established()
        packet = connection.make_packet(flags=ACK, payload=b"zz")
        packet.total_length_override = 4000
        world.client.send_raw(packet)
        world.run(0.5)
        assert self._last_drop(server) is DropReason.IP_LENGTH_MISMATCH

    def test_out_of_window_data_acked_not_consumed(self):
        world, connection, server = self._established()
        packet = connection.make_packet(
            flags=ACK, seq=seq_add(connection.tcb.snd_nxt, 0x40000000),
            payload=b"desync",
        )
        world.client.send_raw(packet)
        world.run(0.5)
        assert not server.application_data
        assert self._last_drop(server) is DropReason.OUT_OF_WINDOW


class TestRSTHandling:
    def test_exact_seq_rst_resets(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        rst = connection.make_packet(flags=RST, seq=connection.tcb.snd_nxt, ack=0)
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.CLOSED
        assert server.close_reason is CloseReason.RESET

    def test_in_window_inexact_rst_challenged(self):
        """RFC 5961 §3: a challenge ACK, not a teardown."""
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        rst = connection.make_packet(
            flags=RST, seq=seq_add(connection.tcb.snd_nxt, 100), ack=0
        )
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED
        assert server.challenge_acks_sent == 1

    def test_out_of_window_rst_ignored(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        rst = connection.make_packet(
            flags=RST, seq=seq_add(connection.tcb.snd_nxt, 0x40000000), ack=0
        )
        world.client.send_raw(rst)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED
        assert server.challenge_acks_sent == 0

    def test_syn_in_established_challenge_acked(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        syn = connection.make_packet(flags=SYN, seq=connection.tcb.snd_nxt, ack=0)
        world.client.send_raw(syn)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED
        assert server.challenge_acks_sent == 1


class TestStrayPackets:
    def test_stray_synack_elicits_rst(self):
        """The server reaction TCB Reversal must avoid via low TTL."""
        world = mini_topology(with_gfw=False)
        rsts = []
        world.client.register_handler(
            lambda p, now: (
                rsts.append(p) if p.is_tcp and p.tcp.is_rst else None, False
            )[1],
            prepend=True,
        )
        stray = IPPacket(
            src=CLIENT_IP, dst=SERVER_IP,
            payload=__import__("repro.netstack.packet", fromlist=["TCPSegment"]).TCPSegment(
                src_port=5555, dst_port=80, seq=1, ack=2, flags=SYN | ACK
            ),
        )
        world.client.send_raw(stray)
        world.run(0.5)
        assert len(rsts) == 1
        assert world.server_tcp.stray_rsts_sent == 1

    def test_stray_rst_not_answered(self):
        world = mini_topology(with_gfw=False)
        from repro.netstack.packet import TCPSegment

        stray = IPPacket(
            src=CLIENT_IP, dst=SERVER_IP,
            payload=TCPSegment(src_port=5555, dst_port=80, seq=1, flags=RST),
        )
        world.client.send_raw(stray)
        world.run(0.5)
        assert world.server_tcp.stray_rsts_sent == 0


class TestFINWithoutAck:
    def test_fin_only_ignored_by_modern_server(self):
        world = mini_topology(with_gfw=False)
        connection = _connect(world)
        server = _server_conn(world, connection)
        fin = connection.make_packet(flags=FIN, seq=connection.tcb.snd_nxt, ack=0)
        world.client.send_raw(fin)
        world.run(0.5)
        assert server.state is TCPState.ESTABLISHED
