"""The lab world: one client, one server, one deterministic GFW.

``mini_topology`` joins a client and a server by one path, optionally
with a GFW device and middleboxes, all noise sources off: mechanism is
shown here (the figure ladders, the strategy matrix, the probe, §8's
countermeasures, the tests), rates are measured in
:mod:`repro.experiments.scenarios`.  :func:`lab_trial` is the one
INTANG-protected fetch in this world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.apps.http import HTTPClient, HTTPServer
from repro.core.intang import INTANG
from repro.gfw import GFWConfig, GFWDevice, evolved_config, old_config
from repro.netsim import Host, Network, Path, SimClock, TraceRecorder
from repro.netsim.path import PathElement
from repro.tcp import TCPHost
from repro.tcp.profiles import LINUX_4_4, StackProfile

CLIENT_IP = "10.0.0.1"
SERVER_IP = "93.184.216.34"
KEYWORD_PATH = "/?q=ultrasurf"


@dataclass
class MiniWorld:
    clock: SimClock
    network: Network
    client: Host
    server: Host
    path: Path
    client_tcp: TCPHost
    server_tcp: TCPHost
    gfw: Optional[GFWDevice] = None
    trace: Optional[TraceRecorder] = None
    gfw_resets_at_client: List[object] = field(default_factory=list)

    def run(self, duration: float = 8.0) -> None:
        self.clock.run_for(duration)


def mini_topology(
    gfw_config: Optional[GFWConfig] = None,
    with_gfw: bool = True,
    hop_count: int = 14,
    gfw_hop: int = 8,
    server_profile: StackProfile = LINUX_4_4,
    elements: Optional[List[PathElement]] = None,
    seed: int = 11,
    loss_rate: float = 0.0,
    trace: bool = False,
    serve_http: bool = True,
) -> MiniWorld:
    """One client, one server, optionally one deterministic GFW device."""
    clock = SimClock()
    recorder = TraceRecorder(enabled=trace)
    network = Network(clock=clock, rng=random.Random(seed), trace=recorder)
    client = network.add_host(Host(CLIENT_IP, "client"))
    server = network.add_host(Host(SERVER_IP, "server"))
    path = Path(CLIENT_IP, SERVER_IP, hop_count=hop_count, loss_rate=loss_rate)
    network.add_path(path)
    gfw = None
    if with_gfw:
        config = gfw_config or evolved_config()
        config.miss_probability = 0.0
        gfw = GFWDevice(
            "gfw", hop=gfw_hop, config=config, clock=clock,
            rng=random.Random(seed + 1),
        )
        gfw.cluster.miss_probability = 0.0
        path.add_element(gfw)
    for element in elements or []:
        path.add_element(element)
    client_tcp = TCPHost(client, clock, rng=random.Random(seed + 2))
    server_tcp = TCPHost(
        server, clock, profile=server_profile, rng=random.Random(seed + 3)
    )
    world = MiniWorld(
        clock=clock, network=network, client=client, server=server,
        path=path, client_tcp=client_tcp, server_tcp=server_tcp,
        gfw=gfw, trace=recorder,
    )
    if serve_http:
        HTTPServer(server_tcp)

    def sniff(packet, now):
        origin = str(packet.meta.get("origin", ""))
        if origin.startswith("gfw") and packet.is_tcp and packet.tcp.is_rst:
            world.gfw_resets_at_client.append(packet)
        return False

    client.register_handler(sniff, prepend=True)
    return world


def fetch(world: MiniWorld, path: str = KEYWORD_PATH, duration: float = 8.0):
    """Issue one HTTP GET and run the world; returns the exchange."""
    client = HTTPClient(world.client_tcp)
    _connection, exchange = client.get(SERVER_IP, host="example.com", path=path)
    world.run(duration)
    return exchange


def lab_trial(
    strategy_id: str,
    seed: int,
    rng_seed: int,
    gfw_config: Optional[GFWConfig] = None,
    trace: bool = False,
) -> Tuple[MiniWorld, object]:
    """One keyword fetch through INTANG pinned to ``strategy_id``: the
    world is ``mini_topology(gfw_config, seed=seed, trace=trace)`` and
    INTANG draws from ``random.Random(rng_seed)``.  Returns the world
    and the exchange."""
    world = mini_topology(gfw_config=gfw_config, seed=seed, trace=trace)
    INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy=strategy_id,
        rng=random.Random(rng_seed),
    )
    return world, fetch(world)


def strategy_matrix(strategies: Sequence[str], seed: int = 1) -> List[List[str]]:
    """``[strategy, old-model outcome, evolved-model outcome]`` per
    strategy, each outcome ``caught`` (the GFW detected the keyword),
    ``EVADES`` (the server answered) or ``broken``."""
    rows = []
    for strategy_id in strategies:
        cells = [strategy_id]
        for model_config in (old_config, evolved_config):
            world, exchange = lab_trial(
                strategy_id, seed, seed + 7, gfw_config=model_config()
            )
            if world.gfw.detections:
                cells.append("caught")
            elif exchange.got_response:
                cells.append("EVADES")
            else:
                cells.append("broken")
        rows.append(cells)
    return rows
