"""Packet trace recording (a pcap-substitute for the simulator).

Traces serve two purposes in this reproduction:

1. debugging and tests — assertions about who saw which packet when;
2. regenerating the paper's sequence diagrams (Fig. 3 and Fig. 4) as
   textual packet ladders via :func:`format_ladder`.

Every recorded event is also published through the process recorder
(:mod:`repro.telemetry.recorder`, component ``netsim``) when it keeps
the event ring, so per-trial diagnosis can interleave packet
observations with GFW state transitions on one sequenced timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.netstack.packet import IPPacket
from repro.telemetry.recorder import get_recorder


@dataclass
class TraceEvent:
    """One observation of a packet at a point in the network."""

    time: float
    location: str
    action: str  # "send", "deliver", "observe", "drop", "inject", ...
    summary: str
    direction: Optional[str] = None
    note: str = ""
    #: Monotonic per-recorder sequence number.  Sim-times collide all the
    #: time (a tap observes and forwards in the same instant), so the
    #: ladder sorts on ``(time, seq)`` to stay deterministic.
    seq: int = 0

    def format(self) -> str:
        head = f"{self.time * 1000.0:9.3f}ms  {self.location:<18} {self.action:<8}"
        tail = f"  ({self.note})" if self.note else ""
        return f"{head} {self.summary}{tail}"


@dataclass
class TraceRecorder:
    """Accumulates :class:`TraceEvent` objects from the network."""

    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True
    #: Optional filter; return False to skip recording an event.
    predicate: Optional[Callable[[TraceEvent], bool]] = None
    _next_seq: int = 0

    def record(
        self,
        time: float,
        location: str,
        action: str,
        packet: Optional[IPPacket] = None,
        direction: Optional[str] = None,
        note: str = "",
    ) -> None:
        if not self.enabled:
            return
        summary = packet.summary() if packet is not None else ""
        event = TraceEvent(
            time=time,
            location=location,
            action=action,
            summary=summary,
            direction=direction,
            note=note,
            seq=self._next_seq,
        )
        if self.predicate is not None and not self.predicate(event):
            return
        self._next_seq += 1
        self.events.append(event)
        recorder = get_recorder()
        if recorder.events_on:
            recorder.publish(
                "netsim", action, time=time,
                location=location, summary=summary, direction=direction,
                note=note,
            )

    def clear(self) -> None:
        self.events.clear()

    def filter(self, action: Optional[str] = None, location: Optional[str] = None) -> List[TraceEvent]:
        """Return events matching the given action and/or location."""
        selected = self.events
        if action is not None:
            selected = [event for event in selected if event.action == action]
        if location is not None:
            selected = [event for event in selected if event.location == location]
        return list(selected)

    def format_ladder(self) -> str:
        """Render the trace as a time-ordered packet ladder.

        Ties on sim-time are broken by the recording sequence number —
        sorting on time alone made ladders nondeterministic whenever two
        events shared an instant (``sorted`` is stable, but events are
        not guaranteed to arrive pre-sorted once taps inject at earlier
        timestamps than the packets they trail).
        """
        lines = [
            event.format()
            for event in sorted(self.events, key=lambda e: (e.time, e.seq))
        ]
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
