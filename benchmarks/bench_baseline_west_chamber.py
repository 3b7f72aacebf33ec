"""Baseline — the West Chamber Project against today's GFW (§1, §2.2)."""

from conftest import report_artifact


def test_west_chamber_baseline():
    text, _ = report_artifact("baseline_west_chamber")
    lines = [line for line in text.splitlines() if "success=" in line]
    modern_env_wc = float(lines[0].split("success=")[1].split("%")[0])
    modern_env_fig4 = float(lines[1].split("success=")[1].split("%")[0])
    ancient_env_wc = float(lines[2].split("success=")[1].split("%")[0])
    assert modern_env_wc < 30.0       # dead today…
    assert ancient_env_wc > 60.0      # …but worked against its own era
    assert modern_env_fig4 > 85.0     # the paper's replacement works now
