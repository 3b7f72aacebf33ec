"""A minimal HTTP/1.1 client and server.

This is the measurement workload of §3/§7.1: the client issues a GET
whose request line or headers may contain a sensitive keyword (the paper
uses ``ultrasurf``), and the trial outcome is classified from what comes
back — a response (Success), silence (Failure 1), or GFW resets
(Failure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.tcp.stack import CloseReason, TCPConnection, TCPHost


def build_request(
    host: str, path: str = "/", headers: Optional[Dict[str, str]] = None
) -> bytes:
    """Serialize a GET request (keyword goes in ``path`` or a header)."""
    lines = [f"GET {path} HTTP/1.1", f"Host: {host}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def parse_request(raw: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """Parse a request head; returns (method, path, headers) or None."""
    if b"\r\n\r\n" not in raw:
        return None
    head = raw.split(b"\r\n\r\n", 1)[0].decode("ascii", "replace")
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        return None
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    return method, path, headers


def build_response(body: bytes) -> bytes:
    """A ``200 OK`` page carrying ``body``."""
    head = (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: text/html\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def parse_response(raw: bytes) -> Optional[Tuple[str, bytes]]:
    """Parse a response; returns (status_line, body) once complete."""
    if b"\r\n\r\n" not in raw:
        return None
    head, body = raw.split(b"\r\n\r\n", 1)
    lines = head.decode("ascii", "replace").split("\r\n")
    status_line = lines[0]
    content_length: Optional[int] = None
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            try:
                content_length = int(line.split(":", 1)[1].strip())
            except ValueError:
                return None
    if content_length is not None and len(body) < content_length:
        return None
    return status_line, body


class HTTPServer:
    """Serves a canned page for any request on a listening port."""

    def __init__(
        self,
        tcp_host: TCPHost,
        port: int = 80,
        body: bytes = b"<html><body>It works!</body></html>",
    ) -> None:
        self.tcp = tcp_host
        self.body = body
        self.requests_served = 0
        tcp_host.listen(port, self._on_accept)

    def _on_accept(self, connection: TCPConnection) -> None:
        buffer = bytearray()

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            parsed = parse_request(bytes(buffer))
            if parsed is None:
                return
            self.requests_served += 1
            conn.send(build_response(self.body))
            conn.close()

        connection.on_data = on_data


@dataclass
class HTTPExchange:
    """Everything observed during one client request, for classification."""

    request: bytes
    response_status: Optional[str] = None
    response_body: Optional[bytes] = None
    rsts_received: List[object] = field(default_factory=list)
    close_reason: Optional[CloseReason] = None
    connected: bool = False

    @property
    def got_response(self) -> bool:
        return self.response_status is not None


class HTTPClient:
    """Issues one GET per connection and records the outcome."""

    def __init__(self, tcp_host: TCPHost) -> None:
        self.tcp = tcp_host

    def get(
        self,
        server_ip: str,
        host: str,
        path: str = "/",
        port: int = 80,
        segment_size: int = 1460,
        on_done: Optional[Callable[[HTTPExchange], None]] = None,
    ) -> Tuple[TCPConnection, HTTPExchange]:
        """Open a connection, send the request, collect the response.

        Returns immediately; run the clock to completion and inspect the
        returned :class:`HTTPExchange`.
        """
        request = build_request(host, path)
        exchange = HTTPExchange(request=request)
        connection = self.tcp.connect(server_ip, port)
        buffer = bytearray()

        def on_established(conn: TCPConnection) -> None:
            exchange.connected = True
            conn.send(request, segment_size=segment_size)

        def on_data(conn: TCPConnection, data: bytes) -> None:
            buffer.extend(data)
            parsed = parse_response(bytes(buffer))
            if parsed is not None and exchange.response_status is None:
                exchange.response_status, exchange.response_body = parsed
                if on_done is not None:
                    on_done(exchange)

        def on_close(conn: TCPConnection, reason: CloseReason) -> None:
            exchange.close_reason = reason
            exchange.rsts_received = list(conn.received_rsts)

        connection.on_established = on_established
        connection.on_data = on_data
        connection.on_close = on_close
        return connection, exchange
