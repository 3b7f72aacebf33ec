"""Fig. 3 — the TCB Creation + Resync/Desync packet sequence, traced."""

from conftest import report_artifact


def test_fig3():
    text, _ = report_artifact("fig3")
    assert "detections=0" in text
    assert "response=True" in text
