"""Differential conformance harness: strategy × GFW-variant × profile × fault.

The paper's central claim is *differential*: an evasion strategy's fate
depends on which censor model variant it meets (old vs. evolved with
NB1–NB3, Fig. 3/4 and Table 4) and which middlebox profile sits on the
client side (Tables 2/5).  Correctness of this reproduction is therefore
a **matrix of verdicts**, not a single pass/fail — and this package is
the standing net that guards that matrix against regression:

- :mod:`repro.conformance.matrix` enumerates the full strategy-catalog ×
  model-variant × middlebox-profile × fault-grid matrix and runs every
  cell through the ordinary scenario/runner machinery (the parallel
  fan-out included);
- :mod:`repro.conformance.oracles` encodes the paper-derived expected
  verdicts as declarative data, with explicit ``KNOWN_DIVERGENCE``
  entries where the reproduction intentionally differs;
- :mod:`repro.conformance.golden` captures canonical packet ladders and
  the blessed verdict snapshot under ``tests/golden/`` and diffs the
  current behaviour against them.

Exposed on the command line as ``repro conformance run|diff|bless``.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".matrix": (
        "CONFORMANCE_PROFILES", "CONFORMANCE_VARIANTS", "ConformanceCell",
        "CellResult", "FAULT_GRID", "FaultPoint", "default_cells", "run_cell",
        "run_matrix",
    ),
    "..experiments.outcomes": ("classify_counts",),
    ".oracles": (
        "KNOWN_DIVERGENCE", "ORACLE_RULES", "OracleRule", "VerdictDrift",
        "check_verdicts",
    ),
    ".golden": (
        "GoldenDiff", "bless", "capture_ladder", "compare_golden",
        "golden_cells", "golden_dir",
    ),
})
