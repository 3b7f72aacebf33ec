"""Table 2 — client-side middlebox behaviours per provider.

Probes all 11 vantage points against a controlled server with the five
packet types of §3.4 and classifies each as Pass / Sometimes dropped /
Dropped (fragments: Discarded / Reassembled)."""

from conftest import report

from repro.experiments.middlebox_probe import probe_all
from repro.experiments.tables import format_table2
from repro.experiments.vantage import CHINA_VANTAGE_POINTS


def regenerate_table2() -> str:
    reports = probe_all(CHINA_VANTAGE_POINTS)
    text = format_table2(reports)
    text += (
        "\n\nPaper (per provider): Aliyun: frags Discarded, FIN sometimes;"
        "\nQCloud: frags Reassembled, RST sometimes; Unicom SJZ: frags"
        " Reassembled, FIN dropped;\nUnicom TJ: frags Reassembled, bad"
        " checksum/no-flag/FIN dropped."
    )
    return text


def test_table2():
    text = regenerate_table2()
    report("table2", text)
    assert "Discarded" in text and "Reassembled" in text


def test_table2_aliyun_row_matches():
    """Per-row assertion bench: the six Aliyun vantage points agree."""
    from repro.experiments.middlebox_probe import probe_vantage
    from repro.experiments.vantage import vantage_by_name

    result = probe_vantage(vantage_by_name("aliyun-shanghai"))
    assert result.results["ip-fragments"] == "Discarded"
    assert result.results["rst"] == "Pass"
