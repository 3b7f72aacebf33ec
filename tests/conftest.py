"""Pytest configuration: make the tests' helper module importable."""

import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a
# CI failure reproduces and a pass is not luck of the draw.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(autouse=True)
def _quiet_recorder():
    """Give each test a fresh observability recorder: off and empty."""
    from repro.telemetry import reset_recorder

    reset_recorder()
    yield
    reset_recorder()
