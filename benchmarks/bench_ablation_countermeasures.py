"""Ablation — §8's GFW countermeasures, enacted one hardening at a time."""

from conftest import report_artifact


def test_ablation_countermeasures():
    text, _ = report_artifact("ablation_countermeasures")
    lines = [line for line in text.splitlines() if "%" in line and "|" in line]

    def cell(line_index, column):
        return int(lines[line_index].split("|")[column].strip().rstrip("%"))

    assert cell(0, 1) == 100          # bad-checksum prefill works on baseline
    assert cell(1, 1) == 0            # checksum validation kills it
    assert cell(1, 2) == 100          # …but MD5 teardown is unaffected
    assert cell(2, 2) == 0            # MD5 rejection kills that in turn
    assert cell(3, 4) > 80            # the TTL combination outlives all three
