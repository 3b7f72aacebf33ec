#!/usr/bin/env python3
"""Quickstart: watch the GFW reset a sensitive request, then evade it.

Builds the paper's Fig. 1 threat model — client, multi-hop path, an
evolved-model GFW device on a tap, server — sends an HTTP request whose
URL contains the probe keyword ``ultrasurf``, and shows:

1. without INTANG the connection is reset (Failure 2);
2. the host pair is blacklisted for 90 seconds (even a benign request
   fails);
3. with INTANG running the Fig. 4 combined strategy, the same sensitive
   request sails through.

Run:  python examples/quickstart.py
"""

import random

from repro.apps.http import HTTPClient, HTTPServer
from repro.core.intang import INTANG
from repro.gfw import GFWDevice, evolved_config
from repro.netsim import Host, Network, Path, SimClock
from repro.tcp import TCPHost

CLIENT_IP = "10.0.0.1"
SERVER_IP = "93.184.216.34"
SENSITIVE_PATH = "/?search=ultrasurf"


def build_world(seed: int = 1):
    """Client ── middleboxes ── GFW tap ── server, 14 hops end to end."""
    clock = SimClock()
    network = Network(clock=clock, rng=random.Random(seed))
    client = network.add_host(Host(CLIENT_IP, "client"))
    server = network.add_host(Host(SERVER_IP, "server"))
    path = Path(CLIENT_IP, SERVER_IP, hop_count=14)
    network.add_path(path)

    gfw = GFWDevice("gfw", hop=8, config=evolved_config(), clock=clock,
                    rng=random.Random(seed + 1))
    gfw.cluster.miss_probability = 0.0  # deterministic demo
    path.add_element(gfw)

    client_tcp = TCPHost(client, clock, rng=random.Random(seed + 2))
    server_tcp = TCPHost(server, clock, rng=random.Random(seed + 3))
    HTTPServer(server_tcp)
    return clock, network, client, client_tcp, server_tcp, gfw


def attempt(clock, client_tcp, path, label):
    http = HTTPClient(client_tcp)
    _connection, exchange = http.get(SERVER_IP, host="example.com", path=path)
    clock.run_for(8.0)
    verdict = "SUCCESS" if exchange.got_response else "BLOCKED"
    rsts = len(exchange.rsts_received)
    print(f"  {label:<46} -> {verdict}   (resets seen: {rsts})")
    return exchange


def main() -> None:
    print("=== 1. Bare client: the GFW detects and resets ===")
    clock, network, client, client_tcp, server_tcp, gfw = build_world()
    attempt(clock, client_tcp, SENSITIVE_PATH, "GET /?search=ultrasurf (no evasion)")
    print(f"  GFW detections: {[str(d) for _, d in gfw.detections]}")
    print(f"  forged resets injected: {gfw.resets_injected}")

    print("\n=== 2. The 90-second blacklist: even benign requests fail ===")
    client_tcp.purge_closed()
    attempt(clock, client_tcp, "/benign.html", "GET /benign.html (pair blacklisted)")
    remaining = gfw.blacklist.remaining(CLIENT_IP, SERVER_IP, clock.now)
    print(f"  blacklist remaining: {remaining:.1f}s")

    print("\n=== 3. Same request through INTANG (Fig. 4 strategy) ===")
    clock, network, client, client_tcp, server_tcp, gfw = build_world(seed=2)
    INTANG(
        host=client, tcp_host=client_tcp, clock=clock, network=network,
        fixed_strategy="tcb-teardown+tcb-reversal", rng=random.Random(9),
    )
    exchange = attempt(clock, client_tcp, SENSITIVE_PATH,
                       "GET /?search=ultrasurf (TCB Teardown + TCB Reversal)")
    print(f"  GFW detections: {len(gfw.detections)} (it saw the whole exchange!)")
    assert exchange.got_response, "evasion should have worked"
    print("\nThe censor's TCP state is not the server's. QED.")


if __name__ == "__main__":
    main()
