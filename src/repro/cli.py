"""Command-line interface: regenerate any paper artifact from a shell.

::

    python -m repro list                    # every artifact + strategies
    python -m repro table1                  # benchmarks/results/table1.txt
    python -m repro table1 --sites 77 --repeats 50   # at paper scale
    python -m repro table2 .. table6, fig1 .. fig4, tor, vpn, resets
    python -m repro ablation_delta --sites 30        # ablations, baselines
    python -m repro matrix                  # strategy × GFW-generation
    python -m repro probe [--model old]     # GFW responsiveness probe
    python -m repro trial --strategy tcb-teardown+tcb-reversal
    python -m repro ladder --figure 3       # Fig. 3/4 packet ladders
    python -m repro perf profile --strategy tcb-teardown-rst/ttl \
        --out profile.pstats                # cProfile one cell
    python -m repro telemetry diagnose --strategy resync-desync
    python -m repro telemetry metrics --format openmetrics  # a sweep's registry
    python -m repro conformance run         # full differential matrix
    python -m repro conformance run --trace-out trace.json --dump-dir dumps/
    python -m repro conformance diff        # show drift vs tests/golden/
    python -m repro conformance bless       # accept new golden artifacts
    python -m repro inconsistency run       # Ensafi-style vantage x hour sweep
    python -m repro fleet run --trace-out fleet.json --dump-dir dumps/

Everything prints to stdout; sizes are small by default so each command
finishes in seconds.  ``repro <id>`` and ``benchmarks/bench_<id>.py``
share one producer per results file (:mod:`repro.experiments.artifacts`):
with no flags, an artifact command prints its committed
``benchmarks/results/<id>.txt`` exactly.  ``matrix``, ``probe`` and
``ladder`` run in the package's lab world (:mod:`repro.experiments.lab`);
only ``conformance`` reads the checkout (its ``tests/golden/`` snapshot).
The two sweep commands, ``conformance`` and ``fleet``, observe their own
run: ``--trace-out`` writes its spans as Chrome/Perfetto trace-event
JSON and ``--dump-dir`` its anomaly dumps, one JSON file each.
``REPRO_WORKERS`` (or ``--workers`` where a command offers it) is the
one parallelism knob: every fan-out runs as contiguous chunks on a
process pool, with output identical for any worker count.  Speed is
measured outside the CLI, by ``perfbench/run.py`` (gated in CI by
``benchmarks/perf_gate.py``); ``perf profile`` is for finding where a
slow cell spends its time.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Optional


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import ARTIFACTS
    from repro.strategies.registry import STRATEGY_REGISTRY

    width = max(len(artifact_id) for artifact_id in ARTIFACTS)
    print("Artifacts: paper tables, figures and ablations (repro <id>):")
    for artifact in ARTIFACTS.values():
        print(f"  {artifact.id:<{width}}  {artifact.title}")
    print("\nStrategies:")
    for strategy_id in sorted(STRATEGY_REGISTRY):
        print(f"  {strategy_id}")
    return 0


def _cmd_artifact(args: argparse.Namespace) -> int:
    """Print one paper table, exactly as its bench writes it."""
    from repro.experiments.artifacts import ARTIFACTS

    artifact = ARTIFACTS[args.command]
    records = artifact.produce(
        **{name: getattr(args, name) for name in artifact.options}
    )
    print(artifact.formatter(records))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.lab import strategy_matrix
    from repro.experiments.tables import render_table
    from repro.strategies.registry import STRATEGY_REGISTRY

    rows = strategy_matrix(sorted(STRATEGY_REGISTRY), seed=args.seed)
    print(render_table(["Strategy", "old GFW", "evolved GFW"], rows))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.core.responsiveness import ResponsivenessProbe
    from repro.experiments.lab import SERVER_IP, mini_topology
    from repro.gfw import evolved_config, old_config

    config = old_config(reset_type=2) if args.model == "old" else evolved_config()
    world = mini_topology(gfw_config=config, with_gfw=not args.clean,
                          seed=args.seed)
    probe = ResponsivenessProbe(world.client, world.client_tcp, world.clock,
                                rng=random.Random(args.seed))
    print(probe.probe(SERVER_IP).summary())
    return 0


def _cmd_trial(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_http_trial,
        vantage_by_name,
    )

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    record = run_http_trial(vantage, website, args.strategy,
                            DEFAULT_CALIBRATION, seed=args.seed)
    print(f"vantage={record.vantage} target={record.target} "
          f"strategy={record.strategy_id}")
    print(f"outcome={record.outcome.value} detections={record.detections} "
          f"drift={record.drift}")
    return 0 if record.outcome.value == "success" else 1


def _cmd_ladder(args: argparse.Namespace) -> int:
    from repro.experiments.lab import lab_trial

    strategy = ("tcb-creation+resync-desync" if args.figure == 3
                else "tcb-teardown+tcb-reversal")
    world, exchange = lab_trial(strategy, args.seed, args.seed, trace=True)
    print(f"Fig. {args.figure}: {strategy} — "
          f"{'evaded' if exchange.got_response else 'failed'}\n")
    print(world.trace.format_ladder())
    return 0


class _CollectorTimer:
    """A ``gc.callbacks`` hook timing the cyclic garbage collector, whose
    pauses cProfile attributes to no function."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def summary(self, wall_seconds: float) -> str:
        gen0, gen1, gen2 = self.collections
        share = self.seconds / wall_seconds if wall_seconds > 0 else 0.0
        return (
            f"gc: collections gen0={gen0} gen1={gen1} gen2={gen2}, "
            f"{self.seconds:.3f} s in the collector "
            f"({share:.1%} of {wall_seconds:.3f} s wall time)"
        )


def _perf_profile(args: argparse.Namespace) -> int:
    """cProfile one experiment cell and print the hottest functions.

    The cell selectors mirror ``telemetry diagnose`` so a slow trial can
    be profiled with the same flags that diagnosed it.  A summary line
    reports the time spent in the cyclic garbage collector, which no
    profiled function is charged, and another how many trials the stop
    rule ended at their final record, split by outcome, which explains a
    drop in per-layer call counts.
    """
    import cProfile
    import gc
    import pstats
    from collections import Counter

    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        vantage_by_name,
    )
    from repro.experiments.runner import _simulate_http_trial
    from repro.experiments.scenarios import release_scenario

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    stopped = Counter()
    used = Counter()
    collector = _CollectorTimer()
    gc.callbacks.append(collector)
    profiler = cProfile.Profile()
    wall_start = perf_counter()
    profiler.enable()
    for repeat in range(args.repeats):
        record, scenario = _simulate_http_trial(
            vantage, website, args.strategy, DEFAULT_CALIBRATION,
            seed=args.seed + repeat, keyword=not args.benign,
        )
        if scenario.stopped_at_verdict:
            stopped[record.outcome.value] += 1
        used[record.strategy_id] += 1
        release_scenario(scenario)
    profiler.disable()
    wall_seconds = perf_counter() - wall_start
    gc.callbacks.remove(collector)
    stats = pstats.Stats(profiler)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    # The ids the trials ran, with counts: without --strategy INTANG's
    # selector picks one per trial (what ``telemetry diagnose`` shows
    # as the record's ``strategy=``).
    used_ids = ",".join(f"{sid}:{n}" for sid, n in sorted(used.items()))
    print(
        f"cell: vantage={vantage.name} site={website.name} "
        f"strategy={args.strategy or 'adaptive'} used={used_ids} "
        f"{'benign' if args.benign else 'keyword'} "
        f"seeds={args.seed}..{args.seed + args.repeats - 1}"
    )
    print(collector.summary(wall_seconds))
    print(
        f"stopped: {sum(stopped.values())} of {args.repeats} "
        f"(success {stopped['success']}, failure2 {stopped['failure2']}) "
        "trials ended at their final record"
    )
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


@contextmanager
def _recording(args: argparse.Namespace) -> Iterator[None]:
    """Observe the ``with`` body, the command's own sweep, and write what
    ``--trace-out`` and ``--dump-dir`` ask for.

    The recorder is raised only as far as the flags need (spans for a
    trace, the event ring for dumps) and only for the body; without
    either flag it stays off.  The trace is Chrome/Perfetto trace-event
    JSON; each anomaly dump is one JSON file, and a ``NO_ANOMALIES``
    marker stands in when none fired.
    """
    import json
    import os

    from repro.telemetry import EVENTS, SPANS, observing, write_chrome_trace

    if not (args.trace_out or args.dump_dir):
        yield
        return
    with observing(EVENTS if args.dump_dir else SPANS) as recorder:
        recorder.clear()
        yield
        records = recorder.drain()
    if args.trace_out:
        trees = records["spans"]
        events = write_chrome_trace(trees, args.trace_out)
        print(f"wrote {args.trace_out} ({len(trees)} root spans, {events} "
              f"trace events; open in ui.perfetto.dev)", file=sys.stderr)
    if args.dump_dir:
        dumps = records["dumps"]
        os.makedirs(args.dump_dir, exist_ok=True)
        for index, dump in enumerate(dumps):
            path = os.path.join(
                args.dump_dir, f"flight_{index:03d}_{dump['anomaly']}.json"
            )
            with open(path, "w", encoding="utf-8") as sink:
                json.dump(dump, sink, indent=1, default=repr)
                sink.write("\n")
        if not dumps:
            # CI uploads this directory; an empty marker beats a
            # missing-artifact failure when the run is clean.
            marker = os.path.join(args.dump_dir, "NO_ANOMALIES")
            with open(marker, "w", encoding="utf-8") as sink:
                sink.write("flight recorder armed; no anomalies fired\n")
        print(f"wrote {len(dumps)} anomaly dumps to {args.dump_dir}",
              file=sys.stderr)


def _cmd_conformance(args: argparse.Namespace) -> int:
    if args.mode == "run":
        return _conformance_run(args)
    with _recording(args):
        results = _conformance_matrix(args)
    if args.mode == "diff":
        return _conformance_diff(results, args)
    return _conformance_bless(results, args)


def _conformance_cells(args: argparse.Namespace):
    from repro.conformance import default_cells

    split = lambda value: value.split(",") if value else None  # noqa: E731
    return default_cells(
        strategies=split(args.strategies),
        variants=split(args.variants),
        profiles=split(args.profiles),
        faults=split(args.faults),
    )


def _conformance_matrix(args: argparse.Namespace):
    from repro.conformance import run_matrix

    cells = _conformance_cells(args)
    print(f"conformance: running {len(cells)} cells "
          f"x {args.repeats} repeats (seed {args.seed})", file=sys.stderr)
    return run_matrix(
        cells, repeats=args.repeats, seed=args.seed, workers=args.workers,
    )


def _conformance_golden_dir(args: argparse.Namespace):
    from pathlib import Path

    from repro.conformance import golden_dir

    return Path(args.golden_dir) if args.golden_dir else golden_dir()


def _conformance_diagnose_drift(drifts, results, limit: int, seed: int) -> None:
    """Explain drifted cells through the telemetry diagnosis layer."""
    from repro.telemetry import diagnose_trial, get_recorder

    recorder = get_recorder()
    for drift in drifts[:limit]:
        cell = results[drift.cell_id].cell
        since = recorder.next_seq
        (kwargs,) = cell.trial_kwargs(seed)
        diagnosis = diagnose_trial(**kwargs)
        # Drift is exactly the anomaly dumps exist for: keep the
        # diagnosing re-run's slice of the event ring.
        recorder.dump(
            "oracle_drift",
            since=since,
            context={
                "cell": drift.cell_id,
                "observed": drift.observed,
                "detail": drift.format(),
            },
        )
        print(f"\n== diagnosis: {drift.cell_id} " + "=" * 30)
        print(diagnosis.render())
    if len(drifts) > limit:
        print(f"\n({len(drifts) - limit} more drifted cells not diagnosed; "
              f"raise --max-diagnose)", file=sys.stderr)


def _conformance_verdicts(results, args: argparse.Namespace) -> bool:
    """Print the verdict summary and the oracle check, diagnosing each
    drifted cell; returns whether the oracle check failed."""
    import json as json_module

    from repro.conformance import check_verdicts
    from repro.conformance.oracles import KNOWN_DIVERGENCE

    drifts, uncovered = check_verdicts(results)
    if args.json:
        document = {cid: r.as_payload() for cid, r in sorted(results.items())}
        print(json_module.dumps(document, indent=2))
    else:
        counts: dict = {}
        for result in results.values():
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"conformance: {len(results)} cells  {summary}")
        noted = [
            entry for entry in KNOWN_DIVERGENCE
            if any(entry.matches(r.cell) for r in results.values())
        ]
        for entry in noted:
            print(
                f"known divergence: {entry.strategy}|{entry.variant}"
                f"|{entry.profile}|{entry.fault}: paper "
                f"{entry.paper_expected!r} -> repro {entry.repro_verdict!r} "
                f"({entry.reason})"
            )

    if uncovered:
        print(f"\noracle coverage FAILED: {len(uncovered)} cells matched "
              "no rule:")
        for cell_id in uncovered[:20]:
            print(f"  {cell_id}")
    if drifts:
        print(f"\nverdict drift vs oracle: {len(drifts)} cells:")
        for drift in drifts:
            print("  " + drift.format())
        _conformance_diagnose_drift(drifts, results, args.max_diagnose,
                                    args.seed)
    return bool(uncovered or drifts)


def _conformance_run(args: argparse.Namespace) -> int:
    """Run the matrix and check it against the oracle and the golden.

    ``--trace-out``/``--dump-dir`` observe the matrix sweep and the
    drifted cells' diagnosis re-runs (so their ``oracle_drift`` dumps
    are written), not the golden-ladder re-simulation.
    """
    from repro.conformance import compare_golden

    with _recording(args):
        results = _conformance_matrix(args)
        failed = _conformance_verdicts(results, args)
    diff = compare_golden(results, _conformance_golden_dir(args),
                          seed=args.seed)
    if not diff.clean:
        failed = True
        print("\n" + diff.format())
        print("\n(after reviewing, `repro conformance bless` accepts the "
              "new behaviour)", file=sys.stderr)
    if not failed:
        print("conformance: PASS (oracle + golden snapshot + ladders)")
    return 1 if failed else 0


def _conformance_diff(results, args: argparse.Namespace) -> int:
    from repro.conformance import compare_golden

    diff = compare_golden(results, _conformance_golden_dir(args),
                          seed=args.seed)
    print(diff.format(max_ladder_lines=args.max_ladder_lines))
    return 0 if diff.clean else 1


def _conformance_bless(results, args: argparse.Namespace) -> int:
    from repro.conformance import bless

    written = bless(results, _conformance_golden_dir(args),
                    seed=args.seed, repeats=args.repeats)
    for path in written:
        print(f"blessed {path}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.mode == "diagnose":
        return _telemetry_diagnose(args)
    return _telemetry_metrics(args)


def _telemetry_diagnose(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        vantage_by_name,
    )
    from repro.telemetry import diagnose_trial

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    diagnosis = diagnose_trial(
        vantage, website, args.strategy, DEFAULT_CALIBRATION,
        seed=args.seed, keyword=not args.benign,
    )
    print(diagnosis.render())
    return 0


def _telemetry_metrics(args: argparse.Namespace) -> int:
    """Run a small baseline-able sweep and print the merged registry as a
    table, JSON, or OpenMetrics text (whose histograms carry the buckets
    a scraper computes quantiles from)."""
    import json

    # An instrument registers when its module is imported, and the
    # snapshot lists every registered one: the HTTP sweep never loads
    # the fleet, so import it here to keep its (zero) counters listed.
    import repro.experiments.fleet  # noqa: F401
    from repro.experiments import (
        CHINA_VANTAGE_POINTS,
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_strategy_cell,
    )
    from repro.telemetry import filter_snapshot, get_registry, openmetrics

    sites = outside_china_catalog(count=args.sites)
    run_strategy_cell(
        args.strategy or "none", CHINA_VANTAGE_POINTS, sites,
        DEFAULT_CALIBRATION,
        repeats=args.repeats, seed=args.seed, keyword=True,
    )
    registry = get_registry()
    # --prefix narrows every output format identically: the JSON and
    # the table views of one invocation always show the same names.
    snapshot = filter_snapshot(registry.snapshot(), args.prefix)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump(snapshot, sink, indent=2, sort_keys=True)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "openmetrics":
        print(openmetrics(snapshot), end="")
    else:
        print(registry.format_table(args.prefix or None))
    if args.check_baseline:
        rst = registry.counter_value("gfw.rst_sent")
        match = registry.counter_value("dpi.match")
        if rst <= 0 or match <= 0:
            print(
                f"telemetry baseline check FAILED: gfw.rst_sent={rst} "
                f"dpi.match={match} (both must be > 0 for a no-strategy "
                "keyword sweep)",
                file=sys.stderr,
            )
            return 1
        print(
            f"telemetry baseline check ok: gfw.rst_sent={rst} "
            f"dpi.match={match}",
            file=sys.stderr,
        )
    return 0


def _cmd_inconsistency(args: argparse.Namespace) -> int:
    """Ensafi-style inconsistency characterization (`inconsistency run`)."""
    import json as json_module

    from repro.analysis.inconsistency import (
        DEFAULT_STRATEGIES,
        run_inconsistency,
    )
    from repro.experiments.tables import (
        format_churn_timeline,
        format_diurnal_curve,
        format_disagreement_matrix,
    )

    hours = [float(h) for h in args.hours.split(",") if h]
    strategies = (
        args.strategies.split(",") if args.strategies else DEFAULT_STRATEGIES
    )
    print(
        f"inconsistency: {args.vantages} vantages x {len(hours)} hours x "
        f"{len(strategies)} strategies x {args.repeats} repeats "
        f"(seed {args.seed})",
        file=sys.stderr,
    )
    report = run_inconsistency(
        vantages=args.vantages,
        hours=hours,
        strategies=strategies,
        repeats=args.repeats,
        seed=args.seed,
        workers=args.workers,
    )
    payload_json = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload_json + "\n")
        print(f"inconsistency: report written to {args.out}", file=sys.stderr)
    if args.json:
        print(payload_json)
        return 0
    print(
        format_disagreement_matrix(
            report.disagreement_matrix(), report.vantage_names
        )
    )
    print()
    print(format_diurnal_curve(report.diurnal_curve()))
    print()
    print(format_churn_timeline(report.churn_timeline()))
    print()
    disagreeing = report.disagreeing_strategies()
    routes = json_module.dumps(
        {name: info["member_variant"] for name, info in report.routes.items()},
        sort_keys=True,
    )
    print(f"route members: {routes}")
    print(
        f"{len(disagreeing)}/{len(report.strategies)} strategies see "
        f"route disagreement: {', '.join(disagreeing) or '(none)'}"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a fleet workload: many client flows, one shared GFW.

    Prints flow-events/s plus per-strategy effectiveness; ``--curve``
    additionally sweeps fleet sizes past the flow-table capacity to
    show strategy effectiveness degrading (or improving — eviction
    thrash helps the client) under censor load.  The cyclic collector's
    passes and seconds during the run are reported too; with more than
    one worker only this process's passes are counted.  ``--trace-out``
    writes the run's spans (group, wave, flow) and ``--dump-dir`` its
    anomaly dumps (eviction false negatives, blacklist false positives),
    each naming the flow, its event ring and the shared TCB snapshots.
    """
    import gc
    import json as json_module

    from repro.experiments.fleet import (
        DEFAULT_FLEET_STRATEGIES,
        FleetSpec,
        effectiveness_curve,
        run_fleet,
    )

    strategies = DEFAULT_FLEET_STRATEGIES
    if args.strategies:
        strategies = tuple(
            item.strip() for item in args.strategies.split(",") if item.strip()
        )
    spec = FleetSpec(
        flows=args.flows,
        seed=args.seed,
        sites=args.sites,
        zipf_alpha=args.zipf_alpha,
        sensitive_fraction=args.sensitive,
        strategies=strategies,
        groups=args.groups,
        window=args.window,
        gfw_variant=args.variant,
        max_flows=args.max_flows,
    )
    collector = _CollectorTimer()
    gc.callbacks.append(collector)
    with _recording(args):
        start = perf_counter()
        try:
            result = run_fleet(spec, workers=args.workers)
        finally:
            elapsed = perf_counter() - start
            gc.callbacks.remove(collector)
    payload = result.to_dict()
    payload["wall_seconds"] = round(elapsed, 3)
    payload["collector"] = {
        "collections": list(collector.collections),
        "seconds": round(collector.seconds, 3),
    }
    if elapsed > 0:
        payload["flow_events_per_second"] = round(result.flow_events / elapsed, 1)
        payload["flows_per_second"] = round(result.flows / elapsed, 1)
    if args.curve:
        sizes = [int(item) for item in args.curve.split(",") if item.strip()]
        payload["curve"] = [
            {
                "flows": size,
                "strategy_success": point.strategy_rates(),
                "benign_success": point.success_rate("benign"),
                "flows_evicted_active": point.flows_evicted_active,
                "eviction_false_negatives": point.eviction_false_negatives,
                "blacklist_false_positives": point.blacklist_false_positives,
            }
            for size, point in effectiveness_curve(
                spec, sizes, workers=args.workers
            )
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json_module.dump(payload, sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"fleet: {result.flows} flows, {result.flow_events} heap events "
        f"(flow_events) in {elapsed:.2f}s"
        + (
            f" ({result.flow_events / elapsed:,.0f} events/s, "
            f"{result.flows / elapsed:,.0f} flows/s)"
            if elapsed > 0
            else ""
        )
    )
    print(
        f"  shared censor: peak {result.peak_flows_tracked} tracked flows, "
        f"{result.flows_evicted} evictions "
        f"({result.flows_evicted_active} mid-stream / "
        f"{result.flows_evicted_after_fin} after FIN, "
        f"{result.evictions_in_resync} in RESYNC), "
        f"{result.blacklistings} blacklistings"
    )
    print(
        f"  load-induced errors: {result.eviction_false_negatives} eviction "
        f"false negatives, {result.blacklist_false_positives} blacklist "
        f"false positives (extension, not a paper result)"
    )
    print(f"  {collector.summary(elapsed)}")
    latency = payload.get("flow_sim_latency") or {}
    if latency.get("count"):
        print(
            f"  first-byte-to-verdict sim-latency: "
            f"p50={latency['p50']:.3f}s p90={latency['p90']:.3f}s "
            f"p99={latency['p99']:.3f}s "
            f"(mean {latency['mean']:.3f}s over {latency['count']} flows)"
        )
    for label, tally in result.outcomes.items():
        total = tally.trials
        rate = tally.success / total if total else 0.0
        print(
            f"  {label:<36} {rate:7.1%} success  "
            f"({tally.success}/{tally.failure1}/{tally.failure2} s/f1/f2 "
            f"of {total})"
        )
    for point in payload.get("curve", []):
        print(
            f"  curve @{point['flows']:>7} flows: "
            + ", ".join(
                f"{label}={rate:.0%}"
                for label, rate in sorted(point["strategy_success"].items())
            )
        )
    return 0


def _add_recording_flags(p: argparse.ArgumentParser) -> None:
    """The sweep commands' observability outputs (see ``_recording``)."""
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="record the sweep's spans and write them here as "
                        "Chrome/Perfetto trace-event JSON")
    p.add_argument("--dump-dir", default=None, dest="dump_dir",
                   help="record the sweep's anomaly dumps and write each "
                        "here as one JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Your State is Not Mine' (IMC '17).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list paper tables and strategies")

    from repro.experiments.artifacts import ARTIFACTS

    for artifact in ARTIFACTS.values():
        p = sub.add_parser(artifact.id, help=artifact.title)
        for name, default in artifact.options.items():
            p.add_argument(f"--{name}", type=int, default=default,
                           help="default: %(default)s, the bench's")

    p = sub.add_parser("matrix", help="strategy × GFW-generation matrix")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("probe", help="GFW responsiveness probe")
    p.add_argument("--model", choices=("old", "evolved"), default="evolved")
    p.add_argument("--clean", action="store_true",
                   help="probe an uncensored path")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("trial", help="one HTTP trial")
    p.add_argument("--strategy", default="tcb-teardown+tcb-reversal")
    p.add_argument("--vantage", default="aliyun-beijing")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("ladder", help="Fig. 3/4 packet ladder")
    p.add_argument("--figure", type=int, choices=(3, 4), default=3)
    p.add_argument("--seed", type=int, default=8)

    p = sub.add_parser(
        "perf",
        help="profile one experiment cell (cProfile) for hot-path work",
    )
    p.add_argument("mode", choices=("profile",))
    p.add_argument("--strategy", default=None,
                   help="strategy id (default: INTANG's adaptive "
                        "selector; 'none' is the no-strategy baseline)")
    p.add_argument("--vantage", default="aliyun-beijing",
                   help="vantage point name")
    p.add_argument("--site", type=int, default=0,
                   help="catalog index of the target site")
    p.add_argument("--benign", action="store_true",
                   help="request the keyword-free URL")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=50,
                   help="trials to profile (consecutive seeds)")
    p.add_argument("--top", type=int, default=25,
                   help="rows of the cumulative-time table to print")
    p.add_argument("--out", default=None,
                   help="also dump raw pstats here (e.g. profile.pstats)")

    p = sub.add_parser(
        "conformance",
        help="differential conformance matrix: run, diff, or bless",
    )
    p.add_argument("mode", choices=("run", "diff", "bless"))
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy ids (default: all)")
    p.add_argument("--variants", default=None,
                   help="comma-separated GFW model variants (default: all)")
    p.add_argument("--profiles", default=None,
                   help="comma-separated middlebox profiles "
                        "(default: neutral,aliyun,unicom-tj)")
    p.add_argument("--faults", default=None,
                   help="comma-separated fault-grid points "
                        "(default: clean,lossy)")
    p.add_argument("--repeats", type=int, default=6,
                   help="trials per cell (verdict majority base)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: REPRO_WORKERS)")
    p.add_argument("--golden-dir", default=None,
                   help="override the tests/golden/ directory")
    p.add_argument("--json", action="store_true",
                   help="[run] print the verdict map as JSON")
    p.add_argument("--max-diagnose", type=int, default=3,
                   help="[run] drifted cells to explain via telemetry "
                        "diagnosis")
    p.add_argument("--max-ladder-lines", type=int, default=40,
                   help="[diff] ladder-diff lines to show per cell")
    _add_recording_flags(p)

    p = sub.add_parser(
        "inconsistency",
        help="Ensafi-style sweep: vantage × hour grid vs the "
             "heterogeneous GFW, reduced to disagreement/diurnal/churn",
    )
    p.add_argument("mode", choices=("run",))
    p.add_argument("--vantages", type=int, default=8,
                   help="synthetic lab vantage points (routes)")
    p.add_argument("--hours", default="0,6,12,18",
                   help="comma-separated simulated hours-of-day")
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy ids (default: the "
                        "generation-discriminating subset)")
    p.add_argument("--repeats", type=int, default=6,
                   help="trials per (vantage, hour, strategy) cell")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: REPRO_WORKERS)")
    p.add_argument("--json", action="store_true",
                   help="print the full report as canonical JSON")
    p.add_argument("--out", default=None,
                   help="also write the JSON report here")

    p = sub.add_parser(
        "fleet",
        help="fleet workload: thousands of client flows, one shared GFW",
        description="Run a fleet of client flows through shared GFW "
                    "installations.  The report's flow_events counts "
                    "simulator heap events: packets that share a leg and "
                    "an instant ride as one event (about 47% fewer than "
                    "one event per packet, with identical outcomes).",
    )
    p.add_argument("mode", choices=("run",))
    p.add_argument("--flows", type=int, default=2000,
                   help="total client flows across all groups")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--sites", type=int, default=32,
                   help="catalog size for Zipf-like site popularity")
    p.add_argument("--zipf-alpha", type=float, default=1.1,
                   dest="zipf_alpha", help="popularity tail exponent")
    p.add_argument("--sensitive", type=float, default=0.5,
                   help="fraction of flows requesting the keyword URL")
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy pool for sensitive "
                        "flows (default: the Table-1 rows incl. none)")
    p.add_argument("--groups", type=int, default=4,
                   help="client groups == independent shared censors")
    p.add_argument("--window", type=int, default=64,
                   help="concurrent flows per shared batch heap")
    p.add_argument("--variant", default="evolved",
                   help="GFW model variant (see gfw/models.py)")
    p.add_argument("--max-flows", type=int, default=None, dest="max_flows",
                   help="shared flow-table capacity override")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size; whole client groups per "
                        "chunk (default: REPRO_WORKERS)")
    p.add_argument("--curve", default=None,
                   help="comma-separated fleet sizes for the "
                        "effectiveness-vs-load sweep")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.add_argument("--out", default=None,
                   help="also write the JSON report here")
    _add_recording_flags(p)

    p = sub.add_parser(
        "telemetry",
        help="diagnose one trial or dump a sweep's metrics registry",
    )
    p.add_argument("mode", choices=("diagnose", "metrics"))
    p.add_argument("--strategy", default=None,
                   help="strategy id (default: [diagnose] INTANG's "
                        "adaptive selector, [metrics] none, the "
                        "no-strategy baseline)")
    p.add_argument("--vantage", default="aliyun-beijing",
                   help="[diagnose] vantage point name")
    p.add_argument("--site", type=int, default=0,
                   help="[diagnose] catalog index of the target site")
    p.add_argument("--benign", action="store_true",
                   help="[diagnose] request the keyword-free URL")
    p.add_argument("--sites", type=int, default=4,
                   help="[metrics] catalog size for the sweep")
    p.add_argument("--repeats", type=int, default=1,
                   help="[metrics] repeats per vantage x site")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("table", "json", "openmetrics"),
                   default="table",
                   help="[metrics] how to print the snapshot")
    p.add_argument("--prefix", default=None,
                   help="[metrics] restrict output (table and JSON alike) "
                        "to instrument names with this prefix")
    p.add_argument("--out", default=None,
                   help="[metrics] also write the JSON snapshot here")
    p.add_argument("--check-baseline", action="store_true",
                   help="[metrics] exit nonzero unless the sweep saw "
                        "dpi.match and gfw.rst_sent")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "matrix": _cmd_matrix,
    "probe": _cmd_probe,
    "trial": _cmd_trial,
    "ladder": _cmd_ladder,
    "perf": _perf_profile,
    "conformance": _cmd_conformance,
    "inconsistency": _cmd_inconsistency,
    "telemetry": _cmd_telemetry,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS.get(args.command, _cmd_artifact)(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
