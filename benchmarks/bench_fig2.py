"""Fig. 2 — INTANG's architecture, exercised component by component."""

from conftest import report_artifact


def test_fig2():
    text, _ = report_artifact("fig2")
    assert "forwarded=1" in text
    assert "HTTP evaded: True" in text
