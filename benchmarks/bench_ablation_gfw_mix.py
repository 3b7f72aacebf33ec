"""Ablation — GFW generation mixture (§7.1's case for combining)."""

from conftest import report_artifact


def test_ablation_gfw_mix():
    text, _ = report_artifact("ablation_gfw_mix")
    lines = [line for line in text.splitlines() if "%" in line]

    def cell(line_index, column):
        return int(lines[line_index].split("|")[column].strip().rstrip("%"))

    # Reversal collapses on all-old paths; the combination holds.
    assert cell(0, 1) > 80       # all evolved: reversal works
    assert cell(-1, 1) < 30      # all old: reversal dies
    assert cell(0, 3) > 80       # combination: works on all-evolved…
    assert cell(-1, 3) > 80      # …and on all-old
