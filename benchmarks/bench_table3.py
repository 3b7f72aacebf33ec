"""Table 3 — candidate insertion packets from the ignore-path analysis.

Runs both halves of §5.3 (server ignores × GFW accepts) live and prints
the confirmed discrepancy rows, plus the §5.3 kernel cross-validation."""

from conftest import report

from repro.analysis import cross_validate_stacks, generate_table3
from repro.experiments.tables import format_table3, render_table


def regenerate_table3() -> str:
    rows = generate_table3()
    text = format_table3([row.as_tuple() for row in rows])
    divergences = cross_validate_stacks()
    table = [
        [d.profile, d.probe, d.state, f"{d.reference_verdict} -> {d.this_verdict}"]
        for d in divergences
    ]
    text += "\n\n" + render_table(
        ["Stack", "Probe", "State", "Divergence vs linux-4.4"],
        table,
        title="Cross-validation with other TCP stacks (§5.3)",
    )
    return text


def test_table3():
    text = regenerate_table3()
    report("table3", text)
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
