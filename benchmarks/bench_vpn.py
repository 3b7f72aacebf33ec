"""§7.3 — OpenVPN-over-TCP: DPI reset vs INTANG.

Reproduces the November-2016 observation: the bare openvpn handshake is
reset by DPI during establishment, while the INTANG-protected session
(improved TCB teardown) survives and tunnels frames.  The configurable
``detect_vpn`` rule reproduces the later behaviour change the authors
could no longer explain (bare VPN suddenly working)."""

from conftest import report

from repro.experiments import CLEAN_ROOM, outside_china_catalog, run_vpn_cell
from repro.experiments.scenarios import build_scenario
from repro.experiments.tables import render_table
from repro.experiments.vantage import CHINA_VANTAGE_POINTS
from repro.apps.vpn import OpenVPNClient

VPN_SITE = outside_china_catalog()[1]


def vpn_campaign() -> str:
    rows = []
    vantages = CHINA_VANTAGE_POINTS[:6]
    bare_results = run_vpn_cell(vantages, VPN_SITE, None, CLEAN_ROOM, seed=2)
    helped_results = run_vpn_cell(
        vantages, VPN_SITE, "improved-tcb-teardown", CLEAN_ROOM, seed=2
    )
    for vantage, bare, helped in zip(vantages, bare_results, helped_results):
        rows.append([
            vantage.name,
            "RESET during handshake" if bare.reset else "up",
            "tunnel up" if helped.frames_ok and not helped.reset else "down",
        ])
    text = render_table(
        ["Vantage", "Bare openvpn-over-TCP", "openvpn + INTANG"],
        rows,
        title="§7.3 VPN (November-2016 GFW behaviour)",
    )
    # The later (unexplained) behaviour change: DPI off.
    scenario = build_scenario(
        vantage=CHINA_VANTAGE_POINTS[0], website=VPN_SITE,
        calibration=CLEAN_ROOM, seed=3, workload="vpn",
    )
    for device in scenario.gfw_devices:
        device.config.rules.detect_vpn = False
    session = OpenVPNClient(scenario.client_tcp).open_session(VPN_SITE.ip)
    scenario.run(8.0)
    alive = session.established and session.payload_frames > 0 and not session.reset
    text += (
        "\n\nWith VPN fingerprinting later disabled (the paper's 2017 "
        f"re-measurement): bare session {'survives' if alive else 'down'}"
    )
    return text


def test_vpn():
    text = vpn_campaign()
    report("vpn", text)
    assert "RESET during handshake" in text
    assert "tunnel up" in text
    assert "bare session survives" in text
