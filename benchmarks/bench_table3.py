"""Table 3 — candidate insertion packets from the ignore-path analysis.

Runs both halves of §5.3 (server ignores × GFW accepts) live and prints
the confirmed discrepancy rows, plus the §5.3 kernel cross-validation."""

from conftest import report_artifact


def test_table3():
    text, _ = report_artifact("table3")
    # All nine paper rows present:
    for condition in (
        "IP total length > actual length",
        "TCP Header Length < 20",
        "TCP checksum incorrect",
        "Has unsolicited MD5 Optional Header",
        "TCP packet with no flag",
        "TCP packet with only FIN flag",
        "Timestamps too old",
    ):
        assert condition in text
    # The three §5.3 cross-validation findings:
    assert "linux-2.4.37" in text and "unsolicited-md5" in text
    assert "no-flag" in text
    assert "syn-in-established" in text
