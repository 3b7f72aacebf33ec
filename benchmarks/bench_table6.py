"""Table 6 — TCP DNS censorship evasion via the Dyn resolvers.

Each vantage point repeatedly resolves a censored domain through
INTANG's UDP→TCP forwarder with the improved TCB teardown strategy.
Shape to check: ~99 % success everywhere except Tianjin (whose resolver
paths cross state-adopting equipment, §7.2), dragging the all-vantage
average to ~93 %; OpenDNS resolvers work even without INTANG."""

from conftest import report_artifact


def test_table6():
    text, _ = report_artifact("table6")
    assert "uncensored (success)" in text
