"""Fig. 2 — INTANG's architecture, exercised component by component.

One run drives every box in the figure: the netfilter-queue-equivalent
interception loop (main thread), strategy callbacks, the Redis-substitute
store + LRU caches (caching thread), and the DNS forwarder (DNS thread).
The bench runs a full INTANG-protected HTTP exchange plus a DNS
resolution — the tool's steady-state unit of work."""

import random

from conftest import report

from repro.apps.dns import DNSTcpResolver, DNSUdpClient, DNSUdpResolver
from repro.apps.udp import UDPHost
from repro.core.intang import INTANG
from repro.apps.http import HTTPClient

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import SERVER_IP, mini_topology  # noqa: E402


def intang_architecture_demo() -> str:
    world = mini_topology(seed=6)
    client_udp = UDPHost(world.client)
    server_udp = UDPHost(world.server)
    zone = {"www.dropbox.com": "104.16.100.29"}
    DNSUdpResolver(server_udp, zone)
    DNSTcpResolver(world.server_tcp, zone)
    from repro.gfw.dns_poisoner import DNSPoisoner

    world.gfw.dns_poisoner = DNSPoisoner()

    intang = INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, rng=random.Random(2),
        dns_resolver_ip=SERVER_IP,
    )
    # Main thread: HTTP through the strategy chosen by the selector.
    http = HTTPClient(world.client_tcp)
    _, exchange = http.get(SERVER_IP, host="x", path="/?q=ultrasurf")
    world.run(8.0)
    intang.report_result(SERVER_IP, exchange.got_response)
    # DNS thread: a censored resolution through the forwarder.
    dns_client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
    answers = []
    dns_client.resolve("www.dropbox.com", lambda m: answers.extend(m.answers))
    world.run(8.0)

    record = intang.selector.record_for(SERVER_IP)
    lines = ["Fig. 2 components, one pass each:"]
    lines.append(f"  interception: {len(intang.framework.contexts)} connection "
                 f"context(s), {intang.insertions_sent()} insertion packets")
    lines.append(f"  strategy used: {intang.last_strategy_for(SERVER_IP)}")
    lines.append(f"  result cache (Redis substitute): {len(intang.store)} record(s), "
                 f"pinned={record.pinned}")
    lines.append(f"  LRU front cache: hits={intang.selector.front_cache.hits} "
                 f"misses={intang.selector.front_cache.misses}")
    lines.append(f"  DNS forwarder: forwarded={intang.dns_forwarder.queries_forwarded} "
                 f"returned={intang.dns_forwarder.responses_returned}")
    lines.append(f"  HTTP evaded: {exchange.got_response}; DNS answer: {answers}")
    return "\n".join(lines)


def test_fig2():
    text = intang_architecture_demo()
    report("fig2", text)
    assert "forwarded=1" in text
    assert "HTTP evaded: True" in text
