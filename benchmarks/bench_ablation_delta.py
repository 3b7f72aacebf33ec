"""Ablation — the TTL margin δ (§7.1 picks δ = 2)."""

from conftest import report_artifact


def test_ablation_delta():
    text, _ = report_artifact("ablation_delta")
    assert "delta=2" in text
