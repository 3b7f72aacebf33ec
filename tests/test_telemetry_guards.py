"""Telemetry events are built only while the recorder keeps them.

Every ``publish`` call outside the telemetry package sits under an
``if <recorder>.events_on:`` test, so a run at level ``off`` builds no
keyword dict, f-string or packet summary for an event nobody records.
The guards must not change what a run at ``events`` records: the pinned
stream below is the one the unguarded publishers produced.
"""

import ast
from pathlib import Path

import repro
from repro.experiments import CHINA_VANTAGE_POINTS, websites
from repro.experiments.runner import run_http_trial
from repro.experiments.outcomes import Outcome
from repro.telemetry import EVENTS, observing
from repro.telemetry.events import plain
from repro.telemetry.recorder import Recorder

SRC = Path(repro.__file__).resolve().parent


def _publish_calls():
    """``(path, line, guarded)`` for every ``.publish(`` call under
    ``src/repro`` outside ``telemetry/``; ``guarded`` when it sits in the
    body of an ``if`` whose test reads ``events_on``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "telemetry":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        guarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and any(
                isinstance(part, ast.Attribute) and part.attr == "events_on"
                for part in ast.walk(node.test)
            ):
                for statement in node.body:
                    guarded.update(id(inner) for inner in ast.walk(statement))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "publish"
            ):
                calls.append(
                    (str(path.relative_to(SRC)), node.lineno, id(node) in guarded)
                )
    return calls


def test_every_publish_sits_under_an_events_on_test():
    calls = _publish_calls()
    # Not vacuous: the GFW device, INTANG and the fleet engine publish.
    assert {"gfw/device.py", "core/intang.py", "experiments/fleet.py"} <= {
        path for path, _line, _guarded in calls
    }
    assert [(path, line) for path, line, guarded in calls if not guarded] == []


def _reset_trial():
    """A keyword trial whose evolved type-1 and type-2 devices both
    detect the request and inject resets (the outcome is Failure 2)."""
    site = websites.outside_china_catalog(count=1)[0]
    return run_http_trial(
        CHINA_VANTAGE_POINTS[0], site, "tcb-teardown-rst/ttl",
        seed=1, keyword=True,
    )


def test_recorder_off_is_never_called(monkeypatch):
    calls = []
    original = Recorder.publish

    def counting(self, *args, **kwargs):
        calls.append(args[:2])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Recorder, "publish", counting)
    record = _reset_trial()
    assert record.outcome is Outcome.FAILURE2
    assert calls == []


#: The ``(component, kind, fields)`` stream of ``_reset_trial`` at
#: level ``events``, as published before the guards went in.
RESET_TRIAL_STREAM = [
    ["intang", "strategy_selected", {
        "server": "203.0.1.1", "strategy": "tcb-teardown-rst/ttl",
        "fixed": True}],
    ["strategy", "on_outgoing", {
        "strategy": "tcb-teardown", "verdict": "accept",
        "summary": "42.120.1.10->203.0.1.1 ttl=64 32768>80 [S] "
                   "seq=39417665 ack=0 len=0 opts[2,8]",
        "released": 1}],
    ["gfw", "tcb_create", {
        "device": "gfw-evolved-t2-0", "on": "syn", "namespace": None,
        "believed_client": "42.120.1.10:32768",
        "believed_server": "203.0.1.1:80"}],
    ["gfw", "tcb_create", {
        "device": "gfw-evolved-t1-1", "on": "syn", "namespace": None,
        "believed_client": "42.120.1.10:32768",
        "believed_server": "203.0.1.1:80"}],
    ["strategy", "insertion", {
        "mode": "queued", "copies": 3,
        "summary": "42.120.1.10->203.0.1.1 ttl=14 32768>80 [R] "
                   "seq=39417666 ack=0 len=0"}],
    ["strategy", "on_outgoing", {
        "strategy": "tcb-teardown", "verdict": "rewrite",
        "summary": "42.120.1.10->203.0.1.1 ttl=64 32768>80 [A] "
                   "seq=39417666 ack=231945774 len=0 opts[8]",
        "released": 4}],
    ["strategy", "on_outgoing", {
        "strategy": "tcb-teardown", "verdict": "accept",
        "summary": "42.120.1.10->203.0.1.1 ttl=64 32768>80 [A] "
                   "seq=39417666 ack=231945774 len=80 opts[8]",
        "released": 1}],
    ["gfw", "resync_enter", {
        "device": "gfw-evolved-t2-0", "namespace": None,
        "cause": "RST during tracking (NB3)"}],
    ["gfw", "resync_exit", {
        "device": "gfw-evolved-t2-0", "namespace": None,
        "via": "client data", "adopted_seq": 39417666}],
    ["gfw", "dpi_match", {
        "device": "gfw-evolved-t2-0", "namespace": None,
        "rule": "http-keyword", "detail": "ultrasurf"}],
    ["gfw", "rst_sent", {
        "device": "gfw-evolved-t2-0", "namespace": None,
        "count": 6, "reset_type": 2}],
    ["gfw", "blacklist_add", {
        "device": "gfw-evolved-t2-0", "namespace": None,
        "client": "42.120.1.10", "server": "203.0.1.1"}],
    ["gfw", "resync_enter", {
        "device": "gfw-evolved-t1-1", "namespace": None,
        "cause": "RST during tracking (NB3)"}],
    ["gfw", "resync_exit", {
        "device": "gfw-evolved-t1-1", "namespace": None,
        "via": "client data", "adopted_seq": 39417666}],
    ["gfw", "dpi_match", {
        "device": "gfw-evolved-t1-1", "namespace": None,
        "rule": "http-keyword", "detail": "ultrasurf"}],
    ["gfw", "rst_sent", {
        "device": "gfw-evolved-t1-1", "namespace": None,
        "count": 2, "reset_type": 1}],
]


def test_recorder_events_stream_is_unchanged():
    with observing(EVENTS) as recorder:
        record = _reset_trial()
        stream = [
            [event.component, event.kind, plain(event.fields)]
            for event in recorder.events()
        ]
    assert record.outcome is Outcome.FAILURE2
    assert stream == RESET_TRIAL_STREAM
