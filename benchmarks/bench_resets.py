"""§2.1 — forged-reset signatures and the blocking regime (ablation)."""

from conftest import report_artifact


def test_reset_signatures():
    text, _ = report_artifact("resets")
    assert "[0, 1460, 4380]" in text
    assert "ttl cyclic" in text
    assert "ttl random" in text
    assert "(type-1 has no blocking period)" in text
