"""Supplement — Table 1 rates broken down by provider (§3.4's analysis)."""

from conftest import report_artifact


def test_provider_breakdown():
    text, _ = report_artifact("provider_breakdown")
    lines = [line for line in text.splitlines() if line.startswith("inorder-overlap/bad-checksum")]
    cells = [cell.strip() for cell in lines[0].split("|")]
    aliyun_success = float(cells[1].split("/")[0])
    tianjin_success = float(cells[4].split("/")[0])
    assert aliyun_success > 80
    assert tianjin_success < 30  # the Tianjin sanitizer signature
