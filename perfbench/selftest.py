#!/usr/bin/env python3
"""Self-test of the benchmark's tracing arithmetic and count repeatability.

Run from the repository root::

    python3 perfbench/selftest.py            # all checks, ~2 minutes
    python3 perfbench/selftest.py --quick    # arithmetic and one real trial

Checks:

1. Arithmetic, on synthetic functions under a fake clock, so every
   expected nanosecond is exact: nested wrapped calls, a layer re-entered
   through another layer, self time when an exception unwinds through a
   wrapper, span parents and unit ids, summed return values, and
   patching (and restoring) a function imported under another name.
   ``run.py --trace 1`` runs this part before every traced run.
2. One real traced trial in which the GFW injects resets back into
   ``Network.launch`` from inside ``GFWDevice.observe`` inside
   ``SimClock.run``: the re-entry must happen, and the layer self times
   must add up exactly to the top-level span.
3. Every registry count and the outcome digest repeat exactly across two
   untraced runs of one seed, on every workload.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fake_modules(clock: List[int]):
    """Two throwaway ``repro.*`` modules: ``b`` imports ``a.inner`` by
    name, the way ``runner`` imports ``acquire_scenario``."""
    a = types.ModuleType("repro._perfbench_selftest_a")
    b = types.ModuleType("repro._perfbench_selftest_b")

    def tick(ns):
        clock[0] += ns

    def inner():
        tick(7)

    def outer():
        tick(10)
        b.inner_alias()
        tick(5)

    def launch():
        tick(4)

    def observe():
        tick(2)
        a.launch()
        tick(3)

    def run():
        tick(1)
        a.observe()
        tick(1)

    def raiser():
        tick(2)
        raise ValueError("unwinds")

    def catcher():
        tick(3)
        try:
            a.raiser()
        except ValueError:
            pass
        tick(1)

    def wave():
        tick(2)
        return 5

    def cell():
        tick(1)
        a.wave()
        tick(1)

    def build():
        tick(9)

    def assemble():
        tick(1)
        a.build()
        tick(1)

    class Clock:
        def run(self):
            tick(6)
            return 3

    for function in (inner, outer, launch, observe, run, raiser, catcher, wave, cell, build, assemble):
        setattr(a, function.__name__, function)
    a.Clock = Clock
    b.inner_alias = inner
    return a, b


def arithmetic_problems() -> List[str]:
    """Exact checks of the self-time arithmetic; returns what failed."""
    import layertrace

    clock = [0]
    a, b = _fake_modules(clock)
    names = (a.__name__, b.__name__)
    saved_ns = layertrace.perf_ns
    sys.modules.update({module.__name__: module for module in (a, b)})
    layertrace.perf_ns = lambda: clock[0]
    problems: List[str] = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, want {want!r}")

    mod = a.__name__
    boundaries = (
        ("A", f"{mod}:outer", ""),
        ("B", f"{mod}:inner", ""),
        ("netsim", f"{mod}:run", ""),
        ("gfw", f"{mod}:observe", ""),
        ("netsim", f"{mod}:launch", ""),
        ("A", f"{mod}:catcher", ""),
        ("B", f"{mod}:raiser", ""),
        ("cells", f"{mod}:cell", "cell"),
        ("waves", f"{mod}:wave", "wave"),
        ("clock", f"{mod}:Clock.run", "events"),
        ("A", f"{mod}:assemble", ""),
        ("count", f"{mod}:build", "count"),
    )
    original_inner = a.inner
    try:
        cases = (
            ("nested", lambda: a.outer(), {"A": 15, "B": 7}),
            ("re-entered", lambda: a.run(), {"netsim": 6, "gfw": 5}),
            ("exception", lambda: a.catcher(), {"A": 4, "B": 2}),
            ("spans", lambda: a.cell(), {"cells": 2, "waves": 2}),
            ("events", lambda: a.Clock().run(), {"clock": 6}),
            ("count-only", lambda: a.assemble(), {"A": 11, "count": 0}),
        )
        for label, call, want in cases:
            tracer = layertrace.LayerTracer()
            tracer.install(boundaries)
            if label == "nested" and b.inner_alias is original_inner:
                problems.append("alias b.inner_alias was not patched")
            tracer.unit = "u1"
            start = clock[0]
            try:
                call()
            finally:
                tracer.uninstall()
            expect(f"{label} self ns", dict(tracer.self_ns), want)
            expect(f"{label} covered ns", tracer.covered_ns(), clock[0] - start)
            expect(f"{label} open frames", len(tracer._frames), 0)
            if label == "re-entered":
                expect("re-entered calls", tracer.calls_of(f"{mod}:run", f"{mod}:observe", f"{mod}:launch"), 3)
            if label == "exception":
                expect("exception calls", tracer.calls_of(f"{mod}:raiser"), 1)
            if label == "spans":
                wave_span, cell_span = tracer.spans
                expect("span parent", wave_span["parent"], cell_span["id"])
                expect("root parent", cell_span["parent"], None)
                expect("span units", (wave_span["unit"], cell_span["unit"]), ("u1", "u1"))
                expect("span self", (wave_span["self_ns"], cell_span["self_ns"]), (2, 2))
                expect("wave events", tracer.returned_of(f"{mod}:wave"), 5)
            if label == "events":
                expect("returned events", tracer.returned_of(f"{mod}:Clock.run"), 3)
            if label == "count-only":
                # A counted call is timed as part of its caller.
                expect("counted calls", tracer.calls_of(f"{mod}:build"), 1)
        expect("alias restored", b.inner_alias is original_inner, True)
        expect("attribute restored", a.inner is original_inner, True)
    finally:
        layertrace.perf_ns = saved_ns
        for name in names:
            sys.modules.pop(name, None)
    return problems


def reentry_problems() -> List[str]:
    """One real traced Table-1 cell in which the GFW resets the flow."""
    import layertrace
    from repro.experiments import CHINA_VANTAGE_POINTS, outside_china_catalog, runner
    from repro.gfw.device import GFWDevice
    from repro.netsim.network import Network

    problems: List[str] = []
    tracer = layertrace.LayerTracer()
    tracer.install()
    wrapped_observe = GFWDevice.observe
    wrapped_launch = Network.launch
    state = {"observing": 0, "reentries": 0, "depth": 0}

    def observe(self, *args, **kwargs):
        state["observing"] += 1
        try:
            return wrapped_observe(self, *args, **kwargs)
        finally:
            state["observing"] -= 1

    def launch(self, *args, **kwargs):
        if state["observing"]:
            state["reentries"] += 1
            state["depth"] = max(state["depth"], len(tracer._frames))
        return wrapped_launch(self, *args, **kwargs)

    GFWDevice.observe = observe
    Network.launch = launch
    try:
        rates = runner.run_strategy_cell(
            "none", CHINA_VANTAGE_POINTS[:1], outside_china_catalog(count=2),
            repeats=2, seed=4242, keyword=True,
        )
    finally:
        GFWDevice.observe = wrapped_observe
        Network.launch = wrapped_launch
        tracer.uninstall()
    if rates.failure2s == 0:
        problems.append("no trial was reset; the re-entry case did not occur")
    if not state["reentries"]:
        problems.append("Network.launch was never called from inside GFWDevice.observe")
    if state["depth"] < 2:
        problems.append(f"re-entry seen at frame depth {state['depth']}, expected >= 2")
    (cell,) = [span for span in tracer.spans if span["kind"] == "cell"]
    if tracer.covered_ns() != cell["dur_ns"]:
        problems.append(
            f"layer self times sum to {tracer.covered_ns()} ns, top-level span is {cell['dur_ns']} ns"
        )
    if any(ns < 0 for ns in tracer.self_ns.values()):
        problems.append(f"negative self time: {dict(tracer.self_ns)}")
    return problems


def repeat_problems(workloads: List[str], seed: int, seconds: float) -> List[str]:
    """Two untraced runs per workload must agree on counts and digest."""
    problems: List[str] = []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for workload in workloads:
            runs = []
            for attempt in range(2):
                path = Path(scratch) / f"{workload}_{attempt}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                     "--units-out", str(path)],
                    cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=170,
                )
                runs.append(json.loads(path.read_text()))
            first, second = runs
            if first["counters"] != second["counters"]:
                problems.append(f"{workload}: registry counts differ between two runs of seed {seed}")
            if first["digest"] != second["digest"]:
                problems.append(f"{workload}: outcome digest differs between two runs of seed {seed}")
            print(f"{workload}: {len(first['counters'])} registry counts and digest compared", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="skip the two-run repeat check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    import run

    run.strip_repro_env()
    run.import_program()
    from workloads import WORKLOADS

    problems = [f"arithmetic: {p}" for p in arithmetic_problems()]
    problems += [f"re-entry: {p}" for p in reentry_problems()]
    if not args.quick:
        problems += repeat_problems(sorted(WORKLOADS), args.seed, args.seconds)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
