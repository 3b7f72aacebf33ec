"""The TCP Control Block and state enumeration.

Both endpoints and the GFW keep TCBs; the entire evasion literature this
paper builds on (Ptacek & Newsham 1998 onward) is about making the GFW's
copy of this structure diverge from the server's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class TCPState(enum.Enum):
    """RFC 793 connection states (plus nothing exotic)."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RECV = "SYN_RECV"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


@dataclass
class TCB:
    """Connection state shared by our endpoint stack implementations."""

    local_ip: str
    local_port: int
    remote_ip: str
    remote_port: int
    state: TCPState = TCPState.CLOSED
    #: Initial send sequence number.
    iss: int = 0
    #: Initial receive sequence number (peer's ISS).
    irs: int = 0
    #: Oldest unacknowledged sequence number we sent.
    snd_una: int = 0
    #: Next sequence number we will send.
    snd_nxt: int = 0
    #: Next sequence number we expect from the peer.
    rcv_nxt: int = 0
    #: Peer's advertised receive window.
    snd_wnd: int = 65535
    #: Our advertised receive window.
    rcv_wnd: int = 65535
    #: Most recent valid peer TSval (PAWS state); None until first seen.
    ts_recent: Optional[int] = None
    #: True when the connection negotiated RFC 2385 MD5 signatures.
    md5_negotiated: bool = False
    #: Peer used the timestamp option on its SYN.
    timestamps_enabled: bool = False

    def four_tuple(self) -> Tuple[str, int, str, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    def describe(self) -> str:
        return (
            f"{self.local_ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} [{self.state.value}] "
            f"snd_una={self.snd_una} snd_nxt={self.snd_nxt} rcv_nxt={self.rcv_nxt}"
        )
