"""Shared sizing and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Sizes are
environment-tunable so the default run finishes in minutes while a
paper-scale run stays one flag away:

- ``REPRO_BENCH_SITES``   — websites per cell (default 15; paper: 77);
- ``REPRO_BENCH_REPEATS`` — repeats per vantage×site (default 1; paper: 50);
- ``REPRO_BENCH_DNS``     — DNS queries per vantage (default 25; paper: 100);
- ``REPRO_FULL=1``        — paper-scale dataset sizes.

The knobs go through :mod:`repro.core.env`: booleans accept the usual
spellings and a malformed or non-positive size raises
:class:`~repro.core.env.EnvKnobError` naming the variable.

Each bench prints its table (visible with ``-s``) and writes it under
``benchmarks/results/`` so EXPERIMENTS.md can cite a recorded artifact.
The benches time nothing; speed is measured by ``perfbench/run.py`` and
gated by ``benchmarks/perf_gate.py``.
"""

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
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
