"""Ablation — insertion-packet redundancy vs loss (§3.4: "thrice")."""

from conftest import report_artifact


def test_ablation_redundancy():
    text, _ = report_artifact("ablation_redundancy")
    lines = [line for line in text.splitlines() if "%" in line and "|" in line]
    single = int(lines[0].split("|")[1].strip().rstrip("%"))
    triple = int(lines[2].split("|")[1].strip().rstrip("%"))
    assert triple >= single
