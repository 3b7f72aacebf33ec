"""Per-trial diagnosis: re-run one cell with full telemetry and explain it.

:func:`diagnose_trial` re-simulates a single experiment cell with the
packet trace recorder *and* the event ring turned on, then renders the
merged timeline — packet observations from the trace recorder
interleaved with the GFW's TCB state transitions, strategy decisions,
and INTANG's bookkeeping, all in one ``(time, seq)`` order (the
recorder-wide sequence counter makes the interleaving exact, not a
tie-break heuristic).

The point is attribution.  A Table 1/4 cell says *what* happened
(Success / Failure 1 / Failure 2); the diagnosis timeline says *which
state transition made it happen* — e.g. a teardown RST deleting the TCB,
a junk packet being adopted on RESYNC exit (the §5.1 desynchronization),
or a SYN/ACK-created TCB with the endpoints reversed (NB1 → §5.2).

Exposed on the command line as ``repro telemetry diagnose``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import get_registry
from repro.telemetry.recorder import EVENTS, observing

__all__ = [
    "TrialDiagnosis",
    "diagnose_trial",
]


@dataclass
class TrialDiagnosis:
    """Everything :func:`diagnose_trial` learned about one trial."""

    #: The :class:`~repro.experiments.runner.TrialRecord` of the re-run.
    record: Any
    #: Every telemetry event the trial published, in publication order.
    events: List[TelemetryEvent] = field(default_factory=list)
    #: The metrics-registry delta the trial produced.
    metrics: Dict = field(default_factory=dict)

    # -- views -----------------------------------------------------------
    def timeline(self) -> str:
        """The merged packet-ladder + state-transition timeline."""
        ordered = sorted(self.events, key=lambda e: (e.time, e.seq))
        return "\n".join(event.format() for event in ordered)

    def transitions(self) -> List[TelemetryEvent]:
        """Only the GFW's TCB lifecycle events, in order."""
        return [e for e in self.events if e.component == "gfw"]

    def explanation(self) -> str:
        """One paragraph naming the transition responsible for the outcome."""
        outcome = self.record.outcome.value
        gfw = self.transitions()

        def last(kind: str) -> Optional[TelemetryEvent]:
            matches = [e for e in gfw if e.kind == kind]
            return matches[-1] if matches else None

        if outcome == "failure2":
            match = last("dpi_match")
            rst = last("rst_sent")
            parts = ["Failure 2: the GFW reset the connection."]
            if match is not None:
                parts.append(
                    f"Responsible transition: dpi_match at "
                    f"{match.time * 1000:.3f}ms "
                    f"(rule={match.fields.get('rule')}, "
                    f"detail={match.fields.get('detail')})."
                )
            if rst is not None:
                parts.append(
                    f"Enforcement: rst_sent at {rst.time * 1000:.3f}ms "
                    f"(count={rst.fields.get('count')})."
                )
            if match is None and rst is None:
                parts.append(
                    "No dpi_match in this run's events — the resets came "
                    "from a middlebox or blacklist state outside this "
                    "window."
                )
            return " ".join(parts)

        if outcome == "success":
            teardown = last("tcb_teardown")
            resync_exit = last("resync_exit")
            resync_enter = last("resync_enter")
            created = [e for e in gfw if e.kind == "tcb_create"]
            if teardown is not None:
                return (
                    "Success: the censor's TCB was torn down "
                    f"(cause={teardown.fields.get('cause')}) at "
                    f"{teardown.time * 1000:.3f}ms, so later keyword bytes "
                    "were invisible — the TCB-teardown building block."
                )
            if resync_exit is not None:
                return (
                    "Success: the censor left RESYNC by adopting "
                    f"seq={resync_exit.fields.get('adopted_seq')} via "
                    f"{resync_exit.fields.get('via')} at "
                    f"{resync_exit.time * 1000:.3f}ms — if that sequence "
                    "came from an insertion packet, the flow is "
                    "desynchronized (§5.1) and the real request is "
                    "out-of-window."
                )
            if resync_enter is not None:
                return (
                    "Success: the censor entered RESYNC "
                    f"(cause={resync_enter.fields.get('cause')}) at "
                    f"{resync_enter.time * 1000:.3f}ms and never "
                    "resynchronized onto the real stream."
                )
            if any(e.fields.get("on") == "synack" for e in created):
                return (
                    "Success: the only TCB was created from a SYN/ACK "
                    "(NB1), so the censor has client and server reversed "
                    "— TCB reversal (§5.2); the monitored direction never "
                    "carries the keyword."
                )
            if not created:
                return (
                    "Success: no TCB was ever created for this flow — the "
                    "censor never tracked it (miss or eviction)."
                )
            return (
                "Success without an evasion transition on record — the "
                "overload draw likely let the flow escape inspection (the "
                "paper's baseline ~2.8%)."
            )

        # failure1
        detail = self.record.diagnosis or "silence"
        resync_exit = last("resync_exit")
        suffix = ""
        if resync_exit is not None:
            suffix = (
                "  The censor did resynchronize "
                f"(via {resync_exit.fields.get('via')}), so evasion state "
                "was not the blocker."
            )
        return (
            "Failure 1: no response and no GFW resets. Harness "
            f"attribution: {detail}.{suffix}"
        )

    def render(self) -> str:
        """The full human-readable report."""
        record = self.record
        header = [
            f"trial   : {record.vantage} -> {record.target} "
            f"strategy={record.strategy_id} keyword={record.keyword}",
            f"outcome : {record.outcome.value}"
            + (f" (drift={record.drift})" if record.drift else ""),
            f"verdict : {self.explanation()}",
        ]
        # Only what the trial moved: the delta keeps every registered
        # instrument (worker merges need the zeros), the report does not.
        moved = {
            family: {
                name: value
                for name, value in self.metrics.get(family, {}).items()
                if (value["count"] if family == "histograms" else value)
            }
            for family in ("counters", "gauges", "histograms")
        }
        registry_view = get_registry().__class__()
        registry_view.merge(moved)
        sections = [
            "\n".join(header),
            "-- timeline (packets + GFW state, one sequence) " + "-" * 24,
            self.timeline() or "(no events: is the event ring on?)",
            "-- metrics delta " + "-" * 55,
            registry_view.format_table(),
        ]
        return "\n".join(sections)


def diagnose_trial(
    vantage: Any,
    website: Any,
    strategy_id: Optional[str],
    calibration: Any = None,
    seed: int = 0,
    keyword: bool = True,
    gfw_variant: Optional[str] = None,
) -> TrialDiagnosis:
    """Re-run one HTTP cell with full telemetry and explain its outcome.

    Always re-simulates, so the trial's events are there to explain.
    The recorder keeps the event ring for the duration
    (:func:`~repro.telemetry.recorder.observing`), so it needs no
    caller to raise the level.  ``gfw_variant`` forces a named
    installation variant, letting the conformance harness explain a
    drifted matrix cell with the exact censor configuration that
    produced it.
    """
    from repro.experiments.calibration import DEFAULT_CALIBRATION
    from repro.experiments.runner import _simulate_http_trial
    from repro.experiments.scenarios import release_scenario

    if calibration is None:
        calibration = DEFAULT_CALIBRATION
    registry = get_registry()
    before = registry.snapshot()
    with observing(EVENTS) as recorder:
        watermark = recorder.next_seq
        record, scenario = _simulate_http_trial(
            vantage, website, strategy_id, calibration,
            seed=seed, keyword=keyword, trace=True, gfw_variant=gfw_variant,
            stop_at_verdict=False,  # the timeline covers the whole run
        )
        release_scenario(scenario)
        events = recorder.events(since_seq=watermark - 1)
    return TrialDiagnosis(
        record=record, events=events, metrics=registry.diff(before)
    )
