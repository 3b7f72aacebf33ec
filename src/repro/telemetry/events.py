"""The event schema: one structured, sequenced observation.

Every component with something attributable to say publishes a
:class:`TelemetryEvent` through the process recorder
(:meth:`repro.telemetry.recorder.Recorder.publish`) — the trace recorder
(packet observations), the GFW device (TCB create / teardown / resync
transitions, DPI matches, reset emission), strategy callbacks
(``on_outgoing`` verdicts, insertion-packet injections), and INTANG
(strategy selection, result feedback).  All publishers share the
recorder's monotonic sequence counter, so a diagnosis can interleave
packet events and censor state transitions into a single timeline
without any cross-source tie-breaking (sim-times collide constantly: a
GFW device observes, matches, and injects at the same instant).

:func:`event_payload` is an event's plain-dict form, the shape anomaly
dumps carry across the process boundary and into JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict

__all__ = ["TelemetryEvent", "event_payload", "get_bus"]


@dataclass
class TelemetryEvent:
    """One structured observation.

    ``seq`` is recorder-wide monotonic (the total order of publication);
    ``time`` is sim-time.  ``fields`` carries component-specific
    key/values (packet summaries, state names, causes).
    """

    seq: int
    time: float
    component: str  # "netsim" | "gfw" | "strategy" | "intang" | ...
    kind: str       # "deliver", "resync_enter", "insertion", ...
    fields: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        detail = " ".join(
            f"{key}={value}" for key, value in self.fields.items()
            if value not in (None, "")
        )
        return (
            f"{self.time * 1000.0:9.3f}ms  {self.component:<9} "
            f"{self.kind:<15} {detail}"
        )


def plain(value: Any) -> Any:
    """JSON/pickle-safe projection of an arbitrary field value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    return repr(value)


def event_payload(event: TelemetryEvent, base: int = 0) -> Dict[str, Any]:
    """``event`` as a plain dict, its ``seq`` counted from ``base``."""
    return {
        "seq": event.seq - base,
        "time": event.time,
        "component": event.component,
        "kind": event.kind,
        "fields": {str(k): plain(v) for k, v in event.fields.items()},
    }


def get_bus() -> SimpleNamespace:
    """Stand-in for the frozen ``perfbench/run.py``, which reads only
    ``.enabled``: whether the recorder keeps the event ring."""
    from repro.telemetry.recorder import EVENTS, get_recorder

    return SimpleNamespace(enabled=get_recorder().level >= EVENTS)
