"""Fig. 4 — the TCB Teardown + TCB Reversal packet sequence, traced."""

from conftest import report_artifact


def test_fig4():
    text, _ = report_artifact("fig4")
    assert "detections=0" in text
    assert text.index("fake SYN/ACK") < text.index("real SYN")
    assert "the real server: True" in text
