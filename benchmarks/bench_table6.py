"""Table 6 — TCP DNS censorship evasion via the Dyn resolvers.

Each vantage point repeatedly resolves a censored domain through
INTANG's UDP→TCP forwarder with the improved TCB teardown strategy.
Shape to check: ~99 % success everywhere except Tianjin (whose resolver
paths cross state-adopting equipment, §7.2), dragging the all-vantage
average to ~93 %; OpenDNS resolvers work even without INTANG."""

from conftest import bench_dns_queries, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    OPENDNS_RESOLVERS,
    run_dns_trial,
)
from repro.experiments.runner import run_table6_rows
from repro.experiments.tables import format_table6

PAPER = {"Dyn 1": (0.986, 0.927), "Dyn 2": (0.996, 0.931)}


def regenerate_table6(queries: int) -> str:
    text = format_table6(run_table6_rows(queries, salted=True))
    opendns = run_dns_trial(
        CHINA_VANTAGE_POINTS[0], OPENDNS_RESOLVERS[0],
        calibration=DEFAULT_CALIBRATION, seed=1, use_intang=False,
    )
    text += (
        f"\n\nOpenDNS {OPENDNS_RESOLVERS[0].ip} without INTANG: "
        f"{'uncensored (success)' if opendns.success else 'censored'}"
        " — reproducing §7.2's accidental discovery."
    )
    text += "\nPaper: Dyn1 98.6%/92.7%, Dyn2 99.6%/93.1% (except-TJ / all)."
    return text


def test_table6():
    text = regenerate_table6(bench_dns_queries())
    report("table6", text)
    assert "uncensored (success)" in text
