"""§7.3 — OpenVPN-over-TCP: DPI reset vs INTANG."""

from conftest import report_artifact


def test_vpn():
    text, _ = report_artifact("vpn")
    assert "RESET during handshake" in text
    assert "tunnel up" in text
    assert "bare session survives" in text
