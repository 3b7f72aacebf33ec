"""The observability recorder: one ordered stream, one level.

A process holds one :class:`Recorder`.  Its ``level`` decides what it
keeps, ordered by cost:

- ``off`` (the default) keeps nothing; every entry point returns after
  one attribute check, so an unobserved run pays nothing else;
- ``spans`` collects the hierarchical span forest (sweep → chunk →
  wave → trial/flow → phase, wall + sim time; see
  :mod:`repro.telemetry.trace`);
- ``events`` also keeps the bounded, sequenced event ring every
  publisher writes :class:`~repro.telemetry.events.TelemetryEvent`
  records into, and takes **anomaly dumps**: slices of that ring (the
  last :data:`DUMP_WINDOW` matching events) plus point-in-time
  snapshots, recorded when an eviction false negative, blacklist false
  positive, oracle drift, or broken verdict fires.

The level comes from ``REPRO_OBS=off|spans|events`` when the recorder is
built; :func:`observing` raises it for a scoped window (the sweep
commands' ``--trace-out``/``--dump-dir``, diagnosis, tests).

Finished root spans and dumps are the recorder's *records*.
:meth:`Recorder.drain` / :meth:`Recorder.merge` move them across the
``map_trials`` process boundary inside the worker's telemetry delta,
the way registry diffs move: merged spans attach under whatever span
is open in the parent, merged dumps append.  A dump's event ``seq``
values count from the start of its window, so a dump is a function of
the workload alone and equal for any chunk layout.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.telemetry.events import TelemetryEvent, event_payload, plain
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import make_span

__all__ = [
    "DUMP_WINDOW",
    "EVENTS",
    "LEVELS",
    "OFF",
    "Recorder",
    "SPANS",
    "get_recorder",
    "observing",
    "reset_recorder",
]

#: Recorder levels, ordered by cost; ``LEVELS[level]`` is the knob name.
OFF, SPANS, EVENTS = 0, 1, 2
LEVELS = ("off", "spans", "events")

#: Default ring capacity; one HTTP trial with full tracing publishes a
#: few hundred events, so this holds several trials of history.
DEFAULT_CAPACITY = 8192

#: Events kept per anomaly dump (the newest matching ones).
DUMP_WINDOW = 128


def env_level() -> int:
    """The level ``REPRO_OBS`` asks for (``off`` when unset)."""
    # Imported here, not at module top: repro.core.__init__ pulls in
    # publishers that import this module, so a module-level import of
    # repro.core.env would be circular.
    from repro.core.env import env_choice

    return LEVELS.index(env_choice("REPRO_OBS", LEVELS, "off"))


class Recorder:
    """Span forest, event ring and anomaly dumps behind one level."""

    def __init__(
        self, level: Optional[int] = None, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        self.capacity = capacity
        self._ring: Deque[TelemetryEvent] = deque(maxlen=capacity)
        self._next_seq = 0
        #: Events pushed out of the ring by newer ones.  Mirrored into
        #: the registry (``telemetry.events_dropped``), so snapshots and
        #: worker-merged deltas expose the silent loss.
        self.dropped = 0
        self._metric_dropped = get_registry().counter(
            "telemetry.events_dropped"
        )
        #: Finished root span trees and anomaly dumps, oldest first.
        self.roots: List[Dict[str, Any]] = []
        self.dumps: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self.level = env_level() if level is None else level

    @property
    def level(self) -> int:
        return self._level

    @level.setter
    def level(self, level: int) -> None:
        self._level = level
        # The hot paths read these flags, one attribute load each.
        self.spans_on = level >= SPANS
        self.events_on = level >= EVENTS

    # -- events ----------------------------------------------------------
    def publish(
        self, component: str, kind: str, time: float = 0.0, **fields: Any
    ) -> Optional[TelemetryEvent]:
        """Append an event; returns it, or None below ``events``."""
        if not self.events_on:
            return None
        if len(self._ring) == self.capacity:
            self.dropped += 1
            self._metric_dropped.inc()
        event = TelemetryEvent(
            seq=self._next_seq, time=time, component=component, kind=kind,
            fields=fields,
        )
        self._next_seq += 1
        self._ring.append(event)
        return event

    def events(
        self,
        component: Optional[str] = None,
        kind: Optional[str] = None,
        since_seq: int = -1,
    ) -> List[TelemetryEvent]:
        """Events still in the ring, filtered and in publication order."""
        return [
            event
            for event in self._ring
            if event.seq > since_seq
            and (component is None or event.component == component)
            and (kind is None or event.kind == kind)
        ]

    @property
    def next_seq(self) -> int:
        """The watermark: events published after now have ``seq >= this``."""
        return self._next_seq

    def __len__(self) -> int:
        return len(self._ring)

    # -- spans -----------------------------------------------------------
    def begin(self, name: str, kind: str, **attrs: Any) -> Optional[Dict[str, Any]]:
        """Open a span at sim time zero; returns it (for :meth:`end`) or
        None below ``spans``.  For LIFO lifetimes: sweeps, chunks, waves."""
        if not self.spans_on:
            return None
        span = make_span(name, kind, wall_start=perf_counter(), attrs=attrs)
        self._stack.append(span)
        return span

    def end(
        self,
        span: Optional[Dict[str, Any]],
        *,
        sim_end: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Close ``span``, attaching it to its parent (or the roots)."""
        if span is None or not self.spans_on:
            return
        # Defensive pop: a child span leaked by an exception between
        # begin/end must not orphan this close.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            self._attach(top)
        span["wall_end"] = perf_counter()
        if sim_end is not None:
            span["sim_end"] = sim_end
        if attrs:
            span["attrs"].update(attrs)
        self._attach(span)

    @contextmanager
    def span(self, name: str, kind: str, **attrs: Any):
        """``with recorder.span(...)`` — yields the open span (or None)."""
        opened = self.begin(name, kind, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def add(self, tree: Dict[str, Any]) -> None:
        """Attach a finished span tree built with
        :func:`~repro.telemetry.trace.make_span` — for trials and fleet
        flows, whose bounds are known only at finalize time."""
        if self.spans_on:
            self._attach(tree)

    def _attach(self, span: Dict[str, Any]) -> None:
        if self._stack:
            self._stack[-1]["children"].append(span)
        else:
            self.roots.append(span)

    # -- anomaly dumps ---------------------------------------------------
    def dump(
        self,
        anomaly: str,
        *,
        since: int,
        time: float = 0.0,
        context: Optional[Dict[str, Any]] = None,
        match: Optional[Callable[[TelemetryEvent], bool]] = None,
        snapshots: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Record one anomaly: the last :data:`DUMP_WINDOW` ring events
        published at or after ``since`` (and passing ``match``), their
        ``seq`` counted from ``since``, plus what ``snapshots()``
        returns.  Returns the dump, or None below ``events``: a dump is
        a slice of the ring, so it exists only while the ring does."""
        if not self.events_on:
            return None
        window = [
            event
            for event in self._ring
            if event.seq >= since and (match is None or match(event))
        ][-DUMP_WINDOW:]
        dump = {
            "anomaly": anomaly,
            "time": time,
            "context": plain(dict(context or {})),
            "events": [event_payload(e, base=since) for e in window],
            "snapshots": plain(snapshots() if snapshots else {}),
        }
        self.dumps.append(dump)
        get_registry().counter("flight.dumps").inc()
        return dump

    # -- worker-merge protocol -------------------------------------------
    def drain(self) -> Dict[str, List[Dict[str, Any]]]:
        """Return and clear the finished records (the worker's share of
        the telemetry delta)."""
        records = {"spans": self.roots, "dumps": self.dumps}
        self.roots, self.dumps = [], []
        return records

    def merge(
        self, records: Optional[Dict[str, List[Dict[str, Any]]]]
    ) -> None:
        """Fold drained worker records in.  Order-independent, like
        :meth:`MetricsRegistry.merge`, and done at any level."""
        if not records:
            return
        spans = records.get("spans", ())
        if self._stack:
            self._stack[-1]["children"].extend(spans)
        else:
            self.roots.extend(spans)
        self.dumps.extend(records.get("dumps", ()))

    def clear(self) -> None:
        """Drop every record, open span and ringed event."""
        self._ring.clear()
        self.dropped = 0
        self.roots, self.dumps, self._stack = [], [], []


# -- process-local singleton --------------------------------------------

_RECORDER: Optional[Recorder] = None


def get_recorder() -> Recorder:
    """The process recorder (built on first use; reads ``REPRO_OBS``)."""
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder()
    return _RECORDER


def reset_recorder() -> Recorder:
    """Replace the process recorder with a fresh one that re-reads
    ``REPRO_OBS`` (test isolation)."""
    global _RECORDER
    _RECORDER = Recorder()
    return _RECORDER


@contextmanager
def observing(level: int) -> Iterator[Recorder]:
    """Run the ``with`` body at ``level`` or above; restores the prior
    level on exit.  Records and ringed events stay."""
    recorder = get_recorder()
    prior = recorder.level
    recorder.level = max(prior, level)
    try:
        yield recorder
    finally:
        recorder.level = prior
