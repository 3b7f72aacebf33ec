"""An OpenVPN-over-TCP stand-in with a fingerprintable handshake.

§7.3: a preliminary INTANG version kept an openvpn-over-TCP session
alive where the bare protocol was reset by the GFW "during the handshake
phase (the GFW seemingly used DPI)".  The wire format below mimics the
aspect that matters: OpenVPN's TCP transport prefixes each message with
a 2-byte length, and the first client message (P_CONTROL_HARD_RESET_V2)
has a recognizable leading opcode byte — which is what DPI keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.preambles import OPENVPN_TCP_PREAMBLE
from repro.tcp.stack import CloseReason, TCPConnection, TCPHost

OPENVPN_SERVER_REPLY = b"\x00\x1e\x40OPENVPN-HARD-RESET-SERVER-V2"
OPENVPN_DEFAULT_PORT = 1194


@dataclass
class VPNSession:
    established: bool = False
    payload_frames: int = 0
    reset: bool = False
    close_reason: Optional[CloseReason] = None
    rsts_received: List[object] = field(default_factory=list)


class OpenVPNServer:
    """Accepts the handshake and echoes tunneled frames."""

    def __init__(self, tcp_host: TCPHost, port: int = OPENVPN_DEFAULT_PORT) -> None:
        self.tcp = tcp_host
        self.port = port
        self.sessions_established = 0
        tcp_host.listen(port, self._on_accept)

    def _on_accept(self, connection: TCPConnection) -> None:
        buffer = bytearray()
        state = {"handshaken": False}

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            if not state["handshaken"]:
                if bytes(buffer).startswith(OPENVPN_TCP_PREAMBLE):
                    state["handshaken"] = True
                    self.sessions_established += 1
                    del buffer[: len(OPENVPN_TCP_PREAMBLE)]
                    conn.send(OPENVPN_SERVER_REPLY)
                return
            while len(buffer) >= 32:
                frame = bytes(buffer[:32])
                del buffer[:32]
                conn.send(frame)

        connection.on_data = on_data


class OpenVPNClient:
    """Handshakes then pushes tunneled frames through the session."""

    def __init__(self, tcp_host: TCPHost) -> None:
        self.tcp = tcp_host

    def open_session(
        self,
        server_ip: str,
        port: int = OPENVPN_DEFAULT_PORT,
        frames_to_send: int = 2,
    ) -> VPNSession:
        session = VPNSession()
        connection = self.tcp.connect(server_ip, port)
        buffer = bytearray()
        pending = {"frames": frames_to_send}

        def start(conn: TCPConnection) -> None:
            conn.send(OPENVPN_TCP_PREAMBLE)

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            if not session.established:
                if bytes(buffer).startswith(OPENVPN_SERVER_REPLY):
                    session.established = True
                    del buffer[: len(OPENVPN_SERVER_REPLY)]
                    if pending["frames"] > 0:
                        conn.send(b"TUN-FRAME" + bytes(23))
                return
            while len(buffer) >= 32:
                del buffer[:32]
                session.payload_frames += 1
                pending["frames"] -= 1
                if pending["frames"] > 0:
                    conn.send(b"TUN-FRAME" + bytes(23))

        def on_close(conn: TCPConnection, reason: CloseReason) -> None:
            session.close_reason = reason
            session.rsts_received = list(conn.received_rsts)
            if reason is CloseReason.RESET:
                session.reset = True

        connection.on_established = start
        connection.on_data = on_data
        connection.on_close = on_close
        return session
