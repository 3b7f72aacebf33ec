"""§7.3 — Tor: active probing, regional filtering, and INTANG's cover."""

from conftest import report_artifact


def test_tor():
    text, _ = report_artifact("tor")
    assert "INTANG success: 11/11" in text
    assert "4 unfiltered vantage points" in text
