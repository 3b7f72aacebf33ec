"""Table 5 — preferred construction of insertion packets.

Derived live from the analysis pipeline: server ignore paths × GFW
acceptance × middlebox survival × control-packet safety."""

from conftest import report

from repro.analysis import derive_table5
from repro.experiments.tables import format_table5
from repro.strategies.insertion import Discrepancy, PREFERRED_DISCREPANCIES


def regenerate_table5() -> str:
    derived = derive_table5()
    text = format_table5(derived)
    static = {
        "SYN": [d.value for d in PREFERRED_DISCREPANCIES["SYN"]],
        "RST": [d.value for d in PREFERRED_DISCREPANCIES["RST"]],
        "Data": [
            "ttl" if d is Discrepancy.LOW_TTL else d.value
            for d in PREFERRED_DISCREPANCIES["DATA"]
        ],
    }
    text += "\n\nStatic preference map used by the strategies: " + repr(static)
    text += "\nDerived and static maps agree: " + str(derived == static)
    return text


def test_table5():
    text = regenerate_table5()
    report("table5", text)
    assert "Derived and static maps agree: True" in text
