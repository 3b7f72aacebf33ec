"""Client-side middlebox probing (§3.4, Table 2).

"We probed for client-side middleboxes from all our 11 vantage points
trying to connect with our own servers."  The probe establishes a real
connection to a controlled server (no GFW on the path matters here — we
include one but probe packets are benign) and fires each anomalous
packet type several times, observing at the server which ones survive
the provider's equipment:

- IP fragments → Discarded / Reassembled (by a middlebox) / Fragments
  arrive intact;
- wrong TCP checksum, no TCP flag, RST, FIN → Pass / Sometimes dropped /
  Dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.netstack.fragment import fragment_packet
from repro.netstack.packet import ACK, FIN, IPPacket, RST
from repro.experiments.calibration import CLEAN_ROOM
from repro.experiments.scenarios import build_scenario, release_scenario
from repro.experiments.vantage import VantagePoint
from repro.experiments.websites import Website

PROBE_REPEATS = 8
#: Seed of a vantage's probe scenarios; repeat ``r`` uses ``PROBE_SEED + r``.
PROBE_SEED = 42

#: A controlled server (the paper's "our own servers").
CONTROLLED_SERVER = Website(
    name="controlled.probe.server",
    ip="198.51.100.7",
    alexa_rank=0,
    asn=64500,
    server_profile="linux-4.4",
    server_ooo_lastwins=False,
    hop_count=14,
    gfw_hop=8,
)


@dataclass
class ProbeReport:
    """Observed fate of each probe packet type from one vantage point."""

    vantage: str
    results: Dict[str, str]

    def row(self) -> List[str]:
        order = ["ip-fragments", "bad-checksum", "no-flag", "rst", "fin"]
        return [self.vantage] + [self.results[key] for key in order]


def _fate(delivered: int, attempts: int) -> str:
    if delivered == attempts:
        return "Pass"
    if delivered == 0:
        return "Dropped"
    return "Sometimes dropped"


def probe_vantage(vantage: VantagePoint) -> ProbeReport:
    """Run the five-row probe of Table 2 from one vantage point, in the
    sterile :data:`CLEAN_ROOM` so only the provider's boxes act."""
    results: Dict[str, str] = {}
    results["ip-fragments"] = _probe_fragments(vantage, PROBE_SEED)
    for label, builder in (
        ("bad-checksum", _bad_checksum_packet),
        ("no-flag", _no_flag_packet),
        ("rst", _rst_packet),
        ("fin", _fin_packet),
    ):
        delivered = 0
        for repeat in range(PROBE_REPEATS):
            if _probe_crafted(vantage, PROBE_SEED + repeat, builder):
                delivered += 1
        results[label] = _fate(delivered, PROBE_REPEATS)
    return ProbeReport(vantage=vantage.name, results=results)


def _base_scenario(vantage: VantagePoint, seed: int):
    return build_scenario(
        vantage=vantage,
        website=CONTROLLED_SERVER,
        calibration=CLEAN_ROOM,
        seed=seed,
        workload="http",
    )


def _probe_fragments(vantage: VantagePoint, seed: int) -> str:
    scenario = _base_scenario(vantage, seed)
    seen: List[IPPacket] = []

    def sniff(packet: IPPacket, now: float) -> bool:
        seen.append(packet)
        return False

    scenario.server.register_handler(sniff, prepend=True)
    rng = random.Random(seed)
    packet = IPPacket(
        src=vantage.ip,
        dst=CONTROLLED_SERVER.ip,
        payload=_payload_segment(rng),
        ttl=64,
    )
    fragments = fragment_packet(packet, fragment_size=24, identification=777)
    for fragment in fragments:
        scenario.client.send(fragment)
    scenario.run(2.0)
    release_scenario(scenario)
    arrived_fragments = [p for p in seen if p.is_fragment]
    arrived_whole = [p for p in seen if not p.is_fragment and p.is_tcp]
    if arrived_fragments:
        return "Fragments arrive intact"
    if arrived_whole:
        return "Reassembled"
    return "Discarded"


def _payload_segment(rng: random.Random):
    from repro.netstack.packet import TCPSegment

    return TCPSegment(
        src_port=rng.randint(32768, 60000),
        dst_port=80,
        seq=rng.randrange(2**32),
        ack=0,
        flags=ACK,
        payload=b"PROBE-" + bytes(58),
    )


def _probe_crafted(vantage, seed, builder) -> bool:
    """Open a connection, fire one crafted packet, check server arrival."""
    scenario = _base_scenario(vantage, seed)
    seen: List[IPPacket] = []

    def sniff(packet: IPPacket, now: float) -> bool:
        if packet.is_tcp and packet.meta.get("probe"):
            seen.append(packet)
        return False

    scenario.server.register_handler(sniff, prepend=True)
    connection = scenario.client_tcp.connect(CONTROLLED_SERVER.ip, 80)
    scenario.run(1.0)
    if connection.is_established:
        probe = builder(connection)
        probe.meta["probe"] = True
        scenario.client.send_raw(probe)
        scenario.run(1.0)
    release_scenario(scenario)
    return bool(seen)


def _bad_checksum_packet(connection) -> IPPacket:
    packet = connection.make_packet(flags=ACK, payload=b"x" * 16)
    packet.tcp.checksum_override = 0xBEEF
    return packet


def _no_flag_packet(connection) -> IPPacket:
    return connection.make_packet(flags=0, payload=b"x" * 16)


def _rst_packet(connection) -> IPPacket:
    return connection.make_packet(flags=RST)


def _fin_packet(connection) -> IPPacket:
    return connection.make_packet(flags=FIN | ACK)


def probe_all(vantages: List[VantagePoint]) -> List[ProbeReport]:
    return [probe_vantage(vantage) for vantage in vantages]
