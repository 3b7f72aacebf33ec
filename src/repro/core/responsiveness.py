"""GFW responsiveness measurement (§1: "an open-source tool to
automatically measure the GFW's responsiveness").

Before spending insertion packets on a path, INTANG can ask whether the
path is censored at all, and by which generation of equipment:

1. **canary probe** — open a throwaway connection and send a request
   carrying the probe keyword; classify the reaction (no reaction /
   type-1 resets / type-2 resets / both) from the forged packets'
   signatures;
2. **blacklist probe** — immediately retry with a *benign* request: a
   type-2 installation answers SYNs with forged SYN/ACKs during its
   90-second window, which is an unforgeable tell;
3. **model probe** — replay §4's multiple-SYN experiment (a wrong-ISN
   fake SYN ahead of a real handshake plus a keyworded request): the
   old model anchors on the fake ISN and stays silent; the evolved
   model resynchronizes via the legitimate SYN/ACK and resets.

All three reuse the measurement client's normal packet paths, so the
probe is exactly as observable as ordinary browsing plus one keyword.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.netstack.packet import IPPacket, SYN, TCPSegment
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.tcp.stack import TCPHost

#: The keyword used as a canary; the paper probes with "ultrasurf".
CANARY_KEYWORD = b"ultrasurf"
PROBE_WINDOW = 6.0


@dataclass
class ResponsivenessReport:
    """What the probe learned about the path to one server."""

    server_ip: str
    #: The path resets keyworded requests.
    censored: bool = False
    #: Reset generations observed ("type1"/"type2"), from signatures.
    reset_types: List[str] = field(default_factory=list)
    #: Forged SYN/ACKs seen on retry — the type-2 blacklist tell.
    blacklist_active: bool = False
    #: The path's devices create TCBs from bare SYN/ACKs (NB1) — an
    #: evolved-model installation.
    evolved_model: Optional[bool] = None

    def summary(self) -> str:
        if not self.censored:
            return f"{self.server_ip}: path appears uncensored"
        kinds = "+".join(sorted(set(self.reset_types))) or "unknown"
        model = (
            "evolved" if self.evolved_model
            else "old" if self.evolved_model is not None
            else "unprobed"
        )
        blacklist = "with 90s blacklist" if self.blacklist_active else "no blacklist seen"
        return (
            f"{self.server_ip}: censored ({kinds} resets, {blacklist}, "
            f"{model} model)"
        )


class ResponsivenessProbe:
    """Runs the probe sequence against one server."""

    #: TTL for the model probe's fake SYN: must cross the censor's hop
    #: but fall short of the server (measure it like INTANG does).
    insertion_ttl = 12

    def __init__(
        self,
        host: Host,
        tcp_host: TCPHost,
        clock: SimClock,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.tcp_host = tcp_host
        self.clock = clock
        self.rng = rng or random.Random(0x9B0BE)
        self._forged: List[IPPacket] = []
        host.register_handler(self._sniff, prepend=True)

    def _sniff(self, packet: IPPacket, now: float) -> bool:
        origin = str(packet.meta.get("origin", ""))
        if origin.startswith("gfw"):
            self._forged.append(packet)
        return False

    # ------------------------------------------------------------------
    def probe(self, server_ip: str, port: int = 80) -> ResponsivenessReport:
        """Run the canary probe, then, if censored, the blacklist and
        model probes against a server."""
        report = ResponsivenessReport(server_ip=server_ip)
        self._forged.clear()
        self._canary_request(server_ip, port)
        resets = [p for p in self._forged if p.is_tcp and p.tcp.is_rst]
        report.censored = bool(resets)
        report.reset_types = sorted(
            {
                str(p.meta.get("origin", "")).replace("gfw-", "")
                for p in resets
            }
        )
        if report.censored:
            report.blacklist_active = self._blacklist_retry(server_ip, port)
            report.evolved_model = self._model_probe(server_ip, port)
        return report

    # -- probe stages ---------------------------------------------------------
    def _canary_request(self, server_ip: str, port: int) -> None:
        connection = self.tcp_host.connect(server_ip, port)
        request = (
            b"GET /?canary=" + CANARY_KEYWORD + b" HTTP/1.1\r\n"
            b"Host: probe\r\nConnection: close\r\n\r\n"
        )
        connection.on_established = lambda conn: conn.send(request)
        self.clock.run_for(PROBE_WINDOW)

    def _blacklist_retry(self, server_ip: str, port: int) -> bool:
        before = len(
            [p for p in self._forged if p.meta.get("forged") == "synack"]
        )
        self.tcp_host.connect(server_ip, port)
        self.clock.run_for(PROBE_WINDOW)
        after = len(
            [p for p in self._forged if p.meta.get("forged") == "synack"]
        )
        return after > before

    def _model_probe(self, server_ip: str, port: int) -> bool:
        """Distinguish the generations with §4's multiple-SYN experiment.

        A fake SYN (wrong ISN, TTL-limited) precedes a real handshake
        and a keyworded request with the *true* sequence numbers:

        - the **old** model anchors its TCB on the fake ISN and never
          sees the request in-window → silence;
        - the **evolved** model enters the re-synchronization state on
          the second SYN, is re-anchored correctly by the legitimate
          SYN/ACK, and detects → resets.

        Run after the blacklist lapses so the reaction is attributable.
        """
        self.clock.run_for(95.0)  # let any blacklist expire
        before = len([p for p in self._forged if p.is_tcp and p.tcp.is_rst])
        # The fake SYN must be on the wire *first*: the old model anchors
        # its TCB on the first SYN it sees, and the probe's signal is
        # precisely that anchor being wrong.
        src_port = self.rng.randint(50000, 59999)
        fake_syn = IPPacket(
            src=self.host.ip, dst=server_ip,
            payload=TCPSegment(
                src_port=src_port, dst_port=port,
                seq=self.rng.randrange(2**32), flags=SYN,
            ),
            ttl=self.insertion_ttl,
        )
        self.host.send_raw(fake_syn)
        connection = self.tcp_host.connect(server_ip, port, src_port=src_port)
        request = (
            b"GET /?canary=" + CANARY_KEYWORD + b" HTTP/1.1\r\n"
            b"Host: probe\r\nConnection: close\r\n\r\n"
        )
        connection.on_established = lambda conn: conn.send(request)
        self.clock.run_for(PROBE_WINDOW)
        after = len([p for p in self._forged if p.is_tcp and p.tcp.is_rst])
        return after > before
