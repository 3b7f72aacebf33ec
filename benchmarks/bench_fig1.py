"""Fig. 1 — the threat model as a live topology."""

from conftest import report_artifact


def test_fig1():
    text, _ = report_artifact("fig1")
    assert "inject capability" in text
    assert "drops attributed to the GFW element: 0" in text
