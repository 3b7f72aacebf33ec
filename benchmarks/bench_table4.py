"""Table 4 — new/improved strategies plus the INTANG row, both directions.

Shape to check: all four strategies ≈ 90 %+ success inside China with
~1 % Failure 2; outside China a few points lower with TCB Creation +
Resync/Desync worst on Failure 1 (TTL-only SYN insertions near a
co-located GFW/server, §7.1); the adaptive INTANG row beats every fixed
strategy."""

from conftest import report_artifact


def test_table4():
    text, _ = report_artifact("table4")
    assert "INTANG Performance" in text
