"""A Tor-like bridge protocol with a fingerprintable handshake.

§7.3: the GFW identifies Tor by passive traffic analysis of the client's
handshake and confirms with an active probe before blocking the bridge's
entire IP.  The simulation needs (a) a client handshake distinctive
enough for DPI fingerprinting, (b) a bridge that answers both genuine
clients and the GFW's probes, and (c) a relay channel that works once the
handshake completes.  Cryptographic realism is irrelevant to the evasion
mechanics, so the "TLS" here is a fixed preamble followed by a cell
exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.preambles import TOR_HANDSHAKE_PREAMBLE
from repro.tcp.stack import CloseReason, TCPConnection, TCPHost

TOR_SERVER_HELLO = b"\x16\x03\x01TOR-SERVER-HELLO"
TOR_DEFAULT_PORT = 443


@dataclass
class TorCircuit:
    """State of one client<->bridge session, for assertions in tests."""

    established: bool = False
    cells_relayed: int = 0
    reset: bool = False
    close_reason: Optional[CloseReason] = None
    rsts_received: List[object] = field(default_factory=list)


class TorBridge:
    """A hidden bridge: answers the Tor handshake on its port.

    The bridge also answers the GFW's active probes — that is the point
    of active probing: a genuine bridge cannot distinguish the censor
    from a user.  The scenario builder exposes :meth:`answers_probe` as
    the prober's oracle.
    """

    def __init__(self, tcp_host: TCPHost, port: int = TOR_DEFAULT_PORT) -> None:
        self.tcp = tcp_host
        self.port = port
        self.handshakes_completed = 0
        tcp_host.listen(port, self._on_accept)

    def answers_probe(self, ip: str, port: int) -> bool:
        """Would a probe of ``ip:port`` confirm a Tor bridge?"""
        return ip == self.tcp.host.ip and port == self.port

    def _on_accept(self, connection: TCPConnection) -> None:
        buffer = bytearray()
        state = {"handshaken": False}

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            if not state["handshaken"]:
                if bytes(buffer).startswith(TOR_HANDSHAKE_PREAMBLE):
                    state["handshaken"] = True
                    self.handshakes_completed += 1
                    del buffer[: len(TOR_HANDSHAKE_PREAMBLE)]
                    conn.send(TOR_SERVER_HELLO)
                elif len(buffer) >= len(TOR_HANDSHAKE_PREAMBLE):
                    conn.abort()  # not a Tor client
                return
            # Relay mode: echo cells back (stands in for circuit traffic).
            while len(buffer) >= 16:
                cell = bytes(buffer[:16])
                del buffer[:16]
                conn.send(cell)

        connection.on_data = on_data


class TorClient:
    """Connects to a bridge, handshakes, then exchanges cells."""

    def __init__(self, tcp_host: TCPHost) -> None:
        self.tcp = tcp_host

    #: Cells a circuit relays after its handshake.
    cells_to_send = 3

    def open_circuit(self, bridge_ip: str, port: int = TOR_DEFAULT_PORT) -> TorCircuit:
        circuit = TorCircuit()
        connection = self.tcp.connect(bridge_ip, port)
        pending = {"cells": self.cells_to_send}
        buffer = bytearray()

        def start(conn: TCPConnection) -> None:
            conn.send(TOR_HANDSHAKE_PREAMBLE)

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            if not circuit.established:
                if bytes(buffer).startswith(TOR_SERVER_HELLO):
                    circuit.established = True
                    del buffer[: len(TOR_SERVER_HELLO)]
                    conn.send(b"CELL" + bytes(12))
                return
            while len(buffer) >= 16:
                del buffer[:16]
                circuit.cells_relayed += 1
                pending["cells"] -= 1
                if pending["cells"] > 0:
                    conn.send(b"CELL" + bytes(12))

        def on_close(conn: TCPConnection, reason: CloseReason) -> None:
            circuit.close_reason = reason
            circuit.rsts_received = list(conn.received_rsts)
            if reason is CloseReason.RESET:
                circuit.reset = True

        connection.on_established = start
        connection.on_data = on_data
        connection.on_close = on_close
        return circuit
