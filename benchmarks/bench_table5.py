"""Table 5 — preferred construction of insertion packets.

Derived live from the analysis pipeline: server ignore paths × GFW
acceptance × middlebox survival × control-packet safety."""

from conftest import report_artifact


def test_table5():
    text, _ = report_artifact("table5")
    assert "Derived and static maps agree: True" in text
