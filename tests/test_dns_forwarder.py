"""DNS forwarder tests: UDP→TCP conversion, transparency, and the
interplay with DNS poisoning (§6, §7.2)."""

import random

from repro.apps.dns import DNSTcpResolver, DNSUdpClient, DNSUdpResolver
from repro.apps.udp import UDPHost
from repro.core.intang import INTANG
from repro.gfw.dns_poisoner import POISONED_ANSWER_IP, DNSPoisoner

from repro.experiments.lab import SERVER_IP, mini_topology

REAL_ANSWER = "104.16.100.29"
CENSORED = "www.dropbox.com"


def _dns_world(with_gfw=True, seed=2):
    world = mini_topology(with_gfw=with_gfw, serve_http=False, seed=seed)
    client_udp = UDPHost(world.client)
    server_udp = UDPHost(world.server)
    zone = {CENSORED: REAL_ANSWER, "ok.example": "1.2.3.4"}
    DNSUdpResolver(server_udp, zone)
    DNSTcpResolver(world.server_tcp, zone)
    if with_gfw:
        world.gfw.dns_poisoner = DNSPoisoner()
    world.server_udp = server_udp
    return world, client_udp


def _resolve(world, client_udp, qname):
    client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
    answers = []
    client.resolve(qname, lambda message: answers.extend(message.answers))
    world.run(8.0)
    return answers


class TestPoisoningBaseline:
    def test_censored_domain_poisoned_over_udp(self):
        world, client_udp = _dns_world()
        answers = _resolve(world, client_udp, CENSORED)
        assert answers == [POISONED_ANSWER_IP]
        assert world.gfw.dns_poisoner.poisonings

    def test_clean_domain_resolves_honestly(self):
        world, client_udp = _dns_world()
        answers = _resolve(world, client_udp, "ok.example")
        assert answers == ["1.2.3.4"]

    def test_forgery_races_ahead_of_real_answer(self):
        """The forgery is injected mid-path and wins; the real answer
        arrives later and is discarded by the qid-matched client."""
        world, client_udp = _dns_world()
        client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
        all_answers = []
        client.resolve(CENSORED, lambda m: all_answers.append(list(m.answers)))
        world.run(8.0)
        assert all_answers == [[POISONED_ANSWER_IP]]


class TestForwarder:
    def _with_intang(self, world, strategy="improved-tcb-teardown"):
        return INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, rng=random.Random(1),
            fixed_strategy=strategy, dns_resolver_ip=SERVER_IP,
        )

    def test_forwarder_defeats_poisoning(self):
        world, client_udp = _dns_world()
        intang = self._with_intang(world)
        answers = _resolve(world, client_udp, CENSORED)
        assert answers == [REAL_ANSWER]
        assert intang.dns_forwarder.queries_forwarded == 1
        assert intang.dns_forwarder.responses_returned == 1
        # The poisoner never saw a UDP query to act on.
        assert not world.gfw.dns_poisoner.poisonings

    def test_forwarder_transparent_source_address(self):
        """The answer appears to come from the resolver the app queried."""
        world, client_udp = _dns_world()
        self._with_intang(world)
        seen_sources = []
        original = client_udp._on_packet

        def spy(packet, now):
            if packet.is_udp and packet.udp.src_port == 53:
                seen_sources.append(packet.src)
            return original(packet, now)

        assert original in world.client._handlers
        world.client._handlers = tuple(
            spy if handler == original else handler
            for handler in world.client._handlers
        )
        _resolve(world, client_udp, CENSORED)
        assert seen_sources == [SERVER_IP]

    def test_tcp_dns_without_evasion_is_reset(self):
        """DNS over TCP alone is not enough: the GFW resets it (§2.1)."""
        world, client_udp = _dns_world()
        self._with_intang(world, strategy="none")
        answers = _resolve(world, client_udp, CENSORED)
        assert answers == []
        assert len(world.gfw.detections) == 1

    def test_non_dns_udp_unaffected(self):
        world, client_udp = _dns_world()
        self._with_intang(world)
        server_udp_got = []
        world.server_udp.bind(
            7000, lambda src, sport, data, now: server_udp_got.append(data)
        )
        client_udp.sendto(b"not-dns", SERVER_IP, 7000, src_port=4000)
        world.run(2.0)
        assert server_udp_got == [b"not-dns"]

    def test_multiple_queries_multiplex_by_qid(self):
        world, client_udp = _dns_world()
        self._with_intang(world)
        client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
        results = {}
        client.resolve(CENSORED, lambda m: results.update(censored=m.answers))
        client.resolve("ok.example", lambda m: results.update(ok=m.answers))
        world.run(10.0)
        assert results["censored"] == [REAL_ANSWER]
        assert results["ok"] == ["1.2.3.4"]
