"""Shared sizing and reporting helpers for the benchmark harness.

Every bench regenerates one results file: a paper table or figure, an
ablation or the fleet curve.  Sizes are environment-tunable so the
default run finishes in minutes while a paper-scale run stays one flag
away:

- ``REPRO_BENCH_SITES``   — websites per cell (default: the artifact's,
  15 for Tables 1 and 4; paper: 77);
- ``REPRO_BENCH_REPEATS`` — repeats per vantage×site (default 1; paper: 50);
- ``REPRO_BENCH_DNS``     — DNS queries per vantage (default 25; paper: 100);
- ``REPRO_FULL=1``        — paper-scale dataset sizes.

The knobs go through :mod:`repro.core.env`: booleans accept the usual
spellings and a malformed or non-positive size raises
:class:`~repro.core.env.EnvKnobError` naming the variable.

Each bench is one call into the artifact registry
(:mod:`repro.experiments.artifacts`, the producer ``repro <id>`` prints
too) plus its shape asserts: it prints the artifact's text (visible with
``-s``) and writes it under ``benchmarks/results/`` so EXPERIMENTS.md can
cite a recorded artifact, at the registry's default sizes and seeds
unless a knob above says otherwise; Tables 1, 4 and 6 also write their
per-cluster records as ``tableN.json``.
The benches time nothing; speed is measured by ``perfbench/run.py`` and
gated by ``benchmarks/perf_gate.py``.
"""

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.env import env_flag, env_int  # noqa: E402


def full_scale() -> bool:
    return env_flag("REPRO_FULL")


def bench_sites(default: int = 15, paper: int = 77) -> int:
    if full_scale():
        return paper
    return env_int("REPRO_BENCH_SITES", default, minimum=1)


def bench_repeats(default: int = 1, paper: int = 50) -> int:
    if full_scale():
        return paper
    return env_int("REPRO_BENCH_REPEATS", default, minimum=1)


def bench_dns_queries(default: int = 25, paper: int = 100) -> int:
    if full_scale():
        return paper
    return env_int("REPRO_BENCH_DNS", default, minimum=1)


def report(name: str, text: str) -> str:
    """Print a bench's table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)
    return path


def report_artifact(artifact_id: str):
    """Regenerate one registry artifact at the bench sizes, report its
    text, and write a clustered table's records as ``<id>.json`` beside
    it; returns the text and the records."""
    from repro.experiments.artifacts import ARTIFACTS, records_json

    artifact = ARTIFACTS[artifact_id]
    sizes = {"sites": bench_sites, "repeats": bench_repeats,
             "queries": bench_dns_queries}
    records = artifact.produce(**{
        name: sizes[name](default)
        for name, default in artifact.options.items() if name in sizes
    })
    text = artifact.formatter(records)
    report(artifact_id, text)
    if artifact.clustered:
        with open(os.path.join(RESULTS_DIR, f"{artifact_id}.json"), "w") as sink:
            sink.write(records_json(records))
    return text, records
