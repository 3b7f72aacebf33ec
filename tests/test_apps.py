"""Application-protocol tests: HTTP, DNS codec + clients, Tor, VPN, UDP."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.dns import (
    DNSTcpResolver,
    DNSUdpClient,
    DNSUdpResolver,
    encode_query,
    encode_response,
    extract_query_name,
    parse_message,
)
from repro.apps.http import (
    HTTPClient,
    HTTPServer,
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from repro.apps.tor import TOR_HANDSHAKE_PREAMBLE, TorBridge, TorClient
from repro.apps.udp import UDPHost
from repro.apps.vpn import OpenVPNClient, OpenVPNServer

from repro.experiments.lab import SERVER_IP, mini_topology


class TestHTTPCodec:
    def test_build_request_structure(self):
        raw = build_request("example.com", "/page", {"X-Probe": "1"})
        assert raw.startswith(b"GET /page HTTP/1.1\r\n")
        assert b"Host: example.com\r\n" in raw
        assert b"X-Probe: 1\r\n" in raw
        assert raw.endswith(b"\r\n\r\n")

    def test_parse_request_roundtrip(self):
        raw = build_request("example.com", "/page")
        method, path, headers = parse_request(raw)
        assert method == "GET"
        assert path == "/page"
        assert headers["host"] == "example.com"

    def test_parse_request_incomplete(self):
        assert parse_request(b"GET / HTTP/1.1\r\nHost: x") is None

    def test_parse_request_garbage(self):
        assert parse_request(b"garbage\r\n\r\n") is None

    def test_response_roundtrip_with_content_length(self):
        raw = build_response(b"hello world")
        status, body = parse_response(raw)
        assert status == "HTTP/1.1 200 OK"
        assert body == b"hello world"

    def test_parse_response_waits_for_full_body(self):
        raw = build_response(b"hello world")
        assert parse_response(raw[:-4]) is None


class TestHTTPOverStack:
    def test_full_exchange(self):
        world = mini_topology(with_gfw=False)
        client = HTTPClient(world.client_tcp)
        _, exchange = client.get(SERVER_IP, host="example.com", path="/x")
        world.run(3.0)
        assert exchange.connected
        assert exchange.got_response
        assert b"It works!" in exchange.response_body

    def test_requests_served_counter(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        server = HTTPServer(world.server_tcp, body=b"custom")
        client = HTTPClient(world.client_tcp)
        _, exchange = client.get(SERVER_IP, host="h")
        world.run(3.0)
        assert server.requests_served == 1
        assert exchange.response_body == b"custom"

    def test_on_done_callback(self):
        world = mini_topology(with_gfw=False)
        done = []
        client = HTTPClient(world.client_tcp)
        client.get(SERVER_IP, host="h", on_done=done.append)
        world.run(3.0)
        assert len(done) == 1


class TestDNSCodec:
    def test_query_roundtrip(self):
        raw = encode_query(qid=0x1234, qname="www.example.com")
        message = parse_message(raw)
        assert message.qid == 0x1234
        assert message.qname == "www.example.com"
        assert not message.is_response

    def test_response_roundtrip(self):
        raw = encode_response(qid=9, qname="a.b.c", address="1.2.3.4")
        message = parse_message(raw)
        assert message.is_response
        assert message.answers == ["1.2.3.4"]

    def test_extract_query_name(self):
        raw = encode_query(qid=1, qname="censored.example")
        assert extract_query_name(raw) == "censored.example"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_message(b"\x00\x01")
        with pytest.raises(ValueError):
            parse_message(b"\x00" * 12)  # qdcount == 0

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            encode_query(qid=1, qname="a..b")

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                    min_size=1, max_size=20),
            min_size=1, max_size=4,
        ),
        st.integers(0, 0xFFFF),
    )
    def test_property_qname_roundtrip(self, labels, qid):
        qname = ".".join(labels)
        assert extract_query_name(encode_query(qid, qname)) == qname


class TestDNSApplications:
    def _dns_world(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        client_udp = UDPHost(world.client)
        server_udp = UDPHost(world.server)
        zone = {"www.example.com": "93.184.216.34"}
        DNSUdpResolver(server_udp, zone)
        DNSTcpResolver(world.server_tcp, zone)
        return world, client_udp

    def test_udp_resolution(self):
        world, client_udp = self._dns_world()
        client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
        answers = []
        client.resolve("www.example.com", lambda m: answers.extend(m.answers))
        world.run(2.0)
        assert answers == ["93.184.216.34"]

    def test_udp_unknown_name_unanswered(self):
        world, client_udp = self._dns_world()
        client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
        answers = []
        client.resolve("nxdomain.example", lambda m: answers.append(m))
        world.run(2.0)
        assert answers == []

    def test_tcp_resolution_with_framing(self):
        world, _ = self._dns_world()
        connection = world.client_tcp.connect(SERVER_IP, 53)
        responses = []
        buffer = bytearray()

        def on_data(conn, data):
            buffer.extend(data)
            if len(buffer) >= 2:
                length = int.from_bytes(buffer[:2], "big")
                if len(buffer) >= 2 + length:
                    responses.append(parse_message(bytes(buffer[2 : 2 + length])))

        query = encode_query(qid=3, qname="www.example.com")
        connection.on_established = lambda c: c.send(
            len(query).to_bytes(2, "big") + query
        )
        connection.on_data = on_data
        world.run(3.0)
        assert responses and responses[0].answers == ["93.184.216.34"]


class TestUDPHost:
    def test_bind_and_deliver(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        client_udp = UDPHost(world.client)
        server_udp = UDPHost(world.server)
        got = []
        server_udp.bind(9999, lambda src, sport, data, now: got.append(data))
        client_udp.sendto(b"ping", SERVER_IP, 9999, src_port=5555)
        world.run(1.0)
        assert got == [b"ping"]

    def test_unbound_port_silently_drops(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        client_udp = UDPHost(world.client)
        UDPHost(world.server)
        client_udp.sendto(b"ping", SERVER_IP, 12345, src_port=5555)
        world.run(1.0)  # nothing raises, nothing delivered

    def test_duplicate_bind_rejected(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        server_udp = UDPHost(world.server)
        server_udp.bind(53, lambda *a: None)
        with pytest.raises(ValueError):
            server_udp.bind(53, lambda *a: None)

    def test_ephemeral_bind(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        client_udp = UDPHost(world.client)
        port = client_udp.bind(0, lambda *a: None)
        assert port >= 40000


class TestTor:
    def _tor_world(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        bridge = TorBridge(world.server_tcp)
        client = TorClient(world.client_tcp)
        return world, bridge, client

    def test_circuit_establishment_and_cells(self):
        world, bridge, client = self._tor_world()
        circuit = client.open_circuit(SERVER_IP)
        world.run(3.0)
        assert circuit.established
        assert circuit.cells_relayed == 3
        assert bridge.handshakes_completed == 1

    def test_non_tor_client_rejected(self):
        world, bridge, _ = self._tor_world()
        connection = world.client_tcp.connect(SERVER_IP, 443)
        connection.on_established = lambda c: c.send(b"X" * 64)
        world.run(3.0)
        assert bridge.handshakes_completed == 0

    def test_probe_oracle(self):
        world, bridge, _ = self._tor_world()
        assert bridge.answers_probe(SERVER_IP, 443)
        assert not bridge.answers_probe(SERVER_IP, 80)
        assert not bridge.answers_probe("8.8.8.8", 443)

    def test_preamble_is_fingerprintable(self):
        assert len(TOR_HANDSHAKE_PREAMBLE) >= 16


class TestVPN:
    def test_session_and_frames(self):
        world = mini_topology(with_gfw=False, serve_http=False)
        server = OpenVPNServer(world.server_tcp)
        client = OpenVPNClient(world.client_tcp)
        session = client.open_session(SERVER_IP)
        world.run(3.0)
        assert session.established
        assert session.payload_frames == 2
        assert server.sessions_established == 1
