"""Table 1 — existing evasion strategies against today's GFW.

Regenerates all fifteen strategy/discrepancy rows, with and without the
sensitive keyword, across the 11 in-China vantage points and the
synthetic website catalog.  Paper values are printed beside ours; the
shape to check (§3.4): TCB creation ~89 % Failure 2, out-of-order IP
fragments dominated by Failure 1 (Aliyun discards) and Failure 2
(middlebox reassembly), in-order prefill > 80 % success, RST teardown
~70 % success with ~25 % Failure 2 (NB3), FIN teardown dead.
"""

from conftest import report_artifact


def test_table1():
    text, _ = report_artifact("table1")
    assert "TCB teardown with FIN" in text
