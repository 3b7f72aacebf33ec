"""Ablation — NB3: resync-on-RST probability (§4)."""

from conftest import report_artifact


def test_ablation_resync():
    text, _ = report_artifact("ablation_resync")
    lines = [line for line in text.splitlines() if line.startswith("P(resync)")]

    def cell(line, column):
        return int(line.split("|")[column].strip().rstrip("%"))

    plain_at_0 = cell(lines[0], 1)
    plain_at_1 = cell(lines[-1], 1)
    improved_at_1 = cell(lines[-1], 2)
    assert plain_at_0 > 85
    assert plain_at_1 < 30
    assert improved_at_1 > 85
