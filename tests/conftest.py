"""Pytest configuration: make the tests' helper module importable."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _quiet_recorder():
    """Give each test a fresh observability recorder: at the level the
    environment asks for (off unless ``REPRO_OBS`` is set) and empty."""
    from repro.telemetry import reset_recorder

    reset_recorder()
    yield
    reset_recorder()
