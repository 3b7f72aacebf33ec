"""Table 2 — client-side middlebox behaviours per provider.

Probes all 11 vantage points against a controlled server with the five
packet types of §3.4 and classifies each as Pass / Sometimes dropped /
Dropped (fragments: Discarded / Reassembled)."""

from conftest import report_artifact


def test_table2():
    text, _ = report_artifact("table2")
    assert "Discarded" in text and "Reassembled" in text


def test_table2_aliyun_row_matches():
    """Per-row assertion bench: the six Aliyun vantage points agree."""
    from repro.experiments.middlebox_probe import probe_vantage
    from repro.experiments.vantage import vantage_by_name

    result = probe_vantage(vantage_by_name("aliyun-shanghai"))
    assert result.results["ip-fragments"] == "Discarded"
    assert result.results["rst"] == "Pass"
