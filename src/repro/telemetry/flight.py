"""Point-in-time snapshots for anomaly dumps.

An anomaly dump (:meth:`repro.telemetry.recorder.Recorder.dump`) is a
slice of the event ring plus whatever state explains it.  These helpers
turn that state into compact, dump-safe dicts: one simulated packet
(:func:`packet_summary`) and one GFW flow-table entry
(:func:`tcb_summary`).  The fleet engine uses both for its eviction
false-negative and blacklist false-positive dumps.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict

from repro.telemetry.events import plain

__all__ = ["get_flight", "packet_summary", "tcb_summary"]


def packet_summary(packet: Any) -> Dict[str, Any]:
    """A compact, dump-safe view of one simulated packet."""
    summary: Dict[str, Any] = {
        "src": plain(getattr(packet, "src", None)),
        "dst": plain(getattr(packet, "dst", None)),
        "meta": plain(dict(getattr(packet, "meta", {}) or {})),
    }
    if getattr(packet, "is_tcp", False):
        tcp = packet.tcp
        summary.update(
            flags=plain(getattr(tcp, "flags", None)),
            seq=getattr(tcp, "seq", None),
            ack=getattr(tcp, "ack", None),
            payload_len=len(getattr(tcp, "payload", b"") or b""),
        )
    return summary


def tcb_summary(flow: Any) -> Dict[str, Any]:
    """A compact view of one GFW flow-table entry (TCB)."""
    return {
        "state": plain(getattr(flow, "state", None)),
        "believed_client": plain(getattr(flow, "believed_client", None)),
        "believed_server": plain(getattr(flow, "believed_server", None)),
        "client_next_seq": getattr(flow, "client_next_seq", None),
        "fin_seen": getattr(flow, "fin_seen", None),
        "punished": getattr(flow, "punished", None),
        "created_at": getattr(flow, "created_at", None),
    }


def get_flight() -> SimpleNamespace:
    """Stand-in for the frozen ``perfbench/run.py``, which reads only
    ``.enabled``: whether the recorder takes anomaly dumps."""
    from repro.telemetry.recorder import EVENTS, get_recorder

    return SimpleNamespace(enabled=get_recorder().level >= EVENTS)
