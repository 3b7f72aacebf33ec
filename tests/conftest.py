"""Pytest configuration: make the tests' helper module importable."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _quiet_event_bus():
    """Leave the telemetry bus the way each test found it: disabled
    (unless the environment says otherwise) and empty."""
    from repro.telemetry import events

    events.reset_bus()
    yield
    events.reset_bus()
