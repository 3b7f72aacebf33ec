"""§7.3 — Tor: active probing, regional filtering, and INTANG's cover.

Reproduces the section's three findings across all 11 vantage points:

1. from 4 vantage points in 3 northern cities, bare Tor runs unfiltered;
2. everywhere else, the handshake fingerprint triggers an active probe
   and the *whole bridge IP* is blocked;
3. with INTANG (improved TCB teardown) the success rate is 100 %."""

from conftest import report

from repro.experiments import CLEAN_ROOM, outside_china_catalog, run_tor_cell
from repro.experiments.tables import render_table
from repro.experiments.vantage import CHINA_VANTAGE_POINTS

BRIDGE = outside_china_catalog()[0]


def tor_campaign() -> str:
    rows = []
    intang_successes = 0
    bare_blocked = 0
    unfiltered = 0
    bare_results = run_tor_cell(CHINA_VANTAGE_POINTS, BRIDGE, None, CLEAN_ROOM, seed=2)
    helped_results = run_tor_cell(
        CHINA_VANTAGE_POINTS, BRIDGE, "improved-tcb-teardown", CLEAN_ROOM, seed=2
    )
    for vantage, bare, helped in zip(
        CHINA_VANTAGE_POINTS, bare_results, helped_results
    ):
        if helped.reconnect_ok and not helped.ip_blocked:
            intang_successes += 1
        if bare.ip_blocked:
            bare_blocked += 1
        elif bare.reconnect_ok:
            unfiltered += 1
        rows.append([
            vantage.name,
            vantage.city,
            "no" if not vantage.tor_filtered else "yes",
            "BLOCKED(IP)" if bare.ip_blocked else (
                "survives" if bare.reconnect_ok else "down"),
            "survives" if helped.reconnect_ok else "down",
        ])
    text = render_table(
        ["Vantage", "City", "Tor-filtered path", "Bare Tor", "Tor + INTANG"],
        rows,
        title="§7.3 Tor bridge reachability",
    )
    text += (
        f"\n\nbare Tor: {unfiltered} unfiltered vantage points (paper: 4, "
        f"northern China), {bare_blocked} whole-IP blocks"
        f"\nINTANG success: {intang_successes}/11 (paper: 100%)"
    )
    return text


def test_tor():
    text = tor_campaign()
    report("tor", text)
    assert "INTANG success: 11/11" in text
    assert "4 unfiltered vantage points" in text
