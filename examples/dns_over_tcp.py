#!/usr/bin/env python3
"""DNS censorship and INTANG's forwarder (§2.1, §6, §7.2).

Three resolutions of a censored domain (www.dropbox.com):

1. plain UDP — the GFW's poisoner injects a forged answer that beats the
   real one to the client;
2. DNS-over-TCP without evasion — the GFW detects the query name in the
   TCP stream and resets the connection;
3. through INTANG — the UDP query is transparently converted to TCP,
   carried over an evaded connection, and the honest answer comes back.

Run:  python examples/dns_over_tcp.py
"""

import random

from repro.apps.dns import DNSTcpResolver, DNSUdpClient, DNSUdpResolver
from repro.apps.udp import UDPHost
from repro.core.intang import INTANG
from repro.experiments.lab import SERVER_IP, mini_topology
from repro.gfw.dns_poisoner import DNSPoisoner, POISONED_ANSWER_IP

CENSORED = "www.dropbox.com"
REAL_ANSWER = "104.16.100.29"


def build_dns_world(seed: int):
    world = mini_topology(with_gfw=True, serve_http=False, seed=seed)
    world.gfw.dns_poisoner = DNSPoisoner()
    client_udp = UDPHost(world.client)
    server_udp = UDPHost(world.server)
    zone = {CENSORED: REAL_ANSWER}
    DNSUdpResolver(server_udp, zone)
    DNSTcpResolver(world.server_tcp, zone)
    return world, client_udp


def resolve(world, client_udp, label):
    client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
    answers = []
    client.resolve(CENSORED, lambda message: answers.extend(message.answers))
    world.run(8.0)
    answer = answers[0] if answers else None
    if answer == REAL_ANSWER:
        verdict = f"honest answer {answer}"
    elif answer == POISONED_ANSWER_IP:
        verdict = f"POISONED -> {answer}"
    else:
        verdict = "no answer (connection reset)"
    print(f"  {label:<44} {verdict}")
    return answer


def main() -> None:
    print(f"Resolving {CENSORED} (real address {REAL_ANSWER}):\n")

    world, client_udp = build_dns_world(seed=1)
    resolve(world, client_udp, "1. plain UDP query")
    print(f"     poisonings injected by the GFW: "
          f"{len(world.gfw.dns_poisoner.poisonings)}")

    world, client_udp = build_dns_world(seed=2)
    INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy="none",
        dns_resolver_ip=SERVER_IP, rng=random.Random(1),
    )
    resolve(world, client_udp, "2. DNS over TCP, no evasion")
    print(f"     GFW detections: {[str(d) for _, d in world.gfw.detections]}")

    world, client_udp = build_dns_world(seed=3)
    intang = INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy="improved-tcb-teardown",
        dns_resolver_ip=SERVER_IP, rng=random.Random(1),
    )
    answer = resolve(world, client_udp, "3. INTANG: UDP->TCP + improved teardown")
    print(f"     queries forwarded over TCP: "
          f"{intang.dns_forwarder.queries_forwarded}")
    assert answer == REAL_ANSWER


if __name__ == "__main__":
    main()
