"""The benchmark's three workloads: inputs, units of work, and checks.

Each workload turns ``--seed`` into a list of *units* per pass.  A unit
is the thing a user waits on (one Table-1 ``run_strategy_cell`` call,
one conformance ``run_cell``, one fleet ``run_fleet`` group) and carries
its own correctness check.  The program is always called through its
module attributes at call time, so the traced run's wrappers see every
call.

Workload rationale (seed, where the work is, repeated-input shares) is
in :data:`RATIONALE`; the run prints it with the measured shares.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The paper's Table 1 (Success, Failure 1, Failure 2 percentages, with
#: the keyword), the reference for ``paper_mae_pp``.  Same values as
#: ``benchmarks/bench_table1.py``.
PAPER_TABLE1: Dict[str, Tuple[float, float, float]] = {
    "none": (2.8, 0.4, 96.8),
    "tcb-creation-syn/ttl": (6.9, 4.2, 88.9),
    "tcb-creation-syn/bad-checksum": (6.2, 5.1, 88.7),
    "ooo-ip-fragments": (1.6, 54.8, 43.6),
    "ooo-tcp-segments": (30.8, 6.5, 62.6),
    "inorder-overlap/ttl": (90.6, 5.7, 3.7),
    "inorder-overlap/bad-ack": (83.1, 7.5, 9.5),
    "inorder-overlap/bad-checksum": (87.2, 1.9, 10.8),
    "inorder-overlap/no-flag": (48.3, 3.3, 48.4),
    "tcb-teardown-rst/ttl": (73.2, 3.2, 23.6),
    "tcb-teardown-rst/bad-checksum": (63.1, 7.6, 29.3),
    "tcb-teardown-rstack/ttl": (73.1, 3.2, 23.7),
    "tcb-teardown-rstack/bad-checksum": (68.9, 1.9, 29.2),
    "tcb-teardown-fin/ttl": (11.1, 1.0, 87.9),
    "tcb-teardown-fin/bad-checksum": (8.4, 0.8, 90.7),
}

RATIONALE: Dict[str, Dict[str, str]] = {
    "table1_fresh": {
        "seed": "--seed derives one cell seed per (row, keyword, vantage), so every trial is a new (cell, seed)",
        "why": "the headline sweep users rerun; memo tiers pay only their recording cost",
        "most_work": "netsim, core, replay (records every trial), tcp, scenarios (traced self time)",
        "least_work": "middlebox, apps, result_cache (writes only); no BatchSim wave (trials are recorded solo)",
    },
    "conformance_matrix": {
        "seed": "matrix seed 2017 (the golden verdicts' seed); --seed only permutes the cell order",
        "why": "the only workload whose repeats share a cell; every GFW variant and TCP loss",
        "most_work": "netsim, replay (6 trials per cell, all recorded), gfw, tcp (lossy cells)",
        "least_work": "result_cache (bypassed), fleet, middlebox (neutral-profile cells)",
    },
    "fleet_contended": {
        "seed": "--seed is the FleetSpec seed of each group (sites, sensitivity, strategies, trial seeds)",
        "why": "shared BatchSim heap and GFW flow table, blacklist and DPI at capacity",
        "most_work": "netsim (shared heap), gfw (flow-table eviction, blacklist), scenarios, tcp",
        "least_work": "replay and result_cache (not on the fleet path), gfw.dpi, core (half the flows are benign)",
    },
}


def derive_seed(*parts: object) -> int:
    """A 31-bit seed, stable across interpreter runs."""
    return zlib.crc32("|".join(str(p) for p in parts).encode()) & 0x7FFFFFFF


@dataclass
class Unit:
    """One timed call and the check on its result."""

    uid: str
    trials: int
    #: Runs the unit; returns ``(outcome, problems)``.  ``outcome`` is
    #: JSON-representable and feeds the digest; ``problems`` lists every
    #: failed correctness check.
    run: Callable[[], Tuple[object, List[str]]]


def _counts_problems(counts: Sequence[int], expected: int) -> List[str]:
    if sum(counts) != expected:
        return [f"outcome counts {list(counts)} sum to {sum(counts)}, expected {expected}"]
    return []


def _by_strategy(rows) -> Dict[str, List[int]]:
    """Sum ``(strategy_id, [success, failure1, failure2])`` rows."""
    totals: Dict[str, List[int]] = {}
    for strategy_id, counts in rows:
        bucket = totals.setdefault(strategy_id, [0, 0, 0])
        for i, count in enumerate(counts):
            bucket[i] += count
    return totals


def _mae_pp(per_strategy: Dict[str, List[int]]) -> float:
    """Mean absolute S/F1/F2 difference from the paper, in points."""
    errors = []
    for strategy_id, paper in PAPER_TABLE1.items():
        counts = per_strategy.get(strategy_id)
        if not counts or sum(counts) == 0:
            continue
        total = sum(counts)
        errors.extend(abs(100.0 * c / total - p) for c, p in zip(counts, paper))
    if not errors:
        raise ValueError("no Table-1 strategy ran; paper_mae_pp is undefined")
    return sum(errors) / len(errors)


def _input_shares(trials: Sequence[Tuple[object, int]]) -> Dict[str, float]:
    """Shares of repeated inputs over ``(cell, seed)`` trial inputs."""
    cells = {cell for cell, _seed in trials}
    pairs = set(trials)
    return {
        "trials": len(trials),
        "repeated_cell_seed_share": (len(trials) - len(pairs)) / len(trials),
        "shared_cell_share": (len(trials) - len(cells)) / len(trials),
        "trials_per_cell": len(trials) / len(cells),
    }


class Table1Fresh:
    """All 15 Table-1 rows x keyword on/off x the 11 China vantages on
    ``SITES`` catalog sites, one ``run_strategy_cell`` call per (row,
    keyword, vantage) with its own cell seed.  Later passes (only when a
    pass fits twice into ``--seconds``) use a fresh site catalog, so no
    replay cell is shared across passes."""

    name = "table1_fresh"
    latency_unit = "cell"
    SITES = 20
    max_passes: Optional[int] = None

    def __init__(self, seed: int) -> None:
        from repro.experiments import CHINA_VANTAGE_POINTS, DEFAULT_CALIBRATION
        from repro.strategies.registry import TABLE1_ROWS

        self.seed = seed
        self.vantages = list(CHINA_VANTAGE_POINTS)
        self.calibration = DEFAULT_CALIBRATION
        self.rows = [strategy_id for _, strategy_id, _ in TABLE1_ROWS]
        self._sites = {0: self._catalog(0)}

    def _catalog(self, pass_index: int):
        from repro.experiments import websites

        if pass_index == 0:
            return websites.outside_china_catalog(count=self.SITES)
        return websites.outside_china_catalog(
            count=self.SITES, seed=derive_seed("sites", self.seed, pass_index)
        )

    def _cells(self, pass_index: int):
        for strategy_id in self.rows:
            for keyword in (True, False):
                for vantage in self.vantages:
                    uid = (
                        f"p{pass_index}|{strategy_id}|"
                        f"{'kw' if keyword else 'benign'}|{vantage.name}"
                    )
                    yield uid, strategy_id, keyword, vantage, derive_seed(self.seed, uid)

    def units(self, pass_index: int) -> List[Unit]:
        if pass_index not in self._sites:
            self._sites[pass_index] = self._catalog(pass_index)
        sites = self._sites[pass_index]
        return [
            Unit(uid, len(sites), self._runner(strategy_id, keyword, vantage, sites, cell_seed))
            for uid, strategy_id, keyword, vantage, cell_seed in self._cells(pass_index)
        ]

    def _runner(self, strategy_id, keyword, vantage, sites, cell_seed):
        from repro.experiments import runner

        def run():
            rates = runner.run_strategy_cell(
                strategy_id, [vantage], sites, self.calibration,
                repeats=1, seed=cell_seed, keyword=keyword,
            )
            counts = [rates.successes, rates.failure1s, rates.failure2s]
            return counts, _counts_problems(counts, len(sites))

        return run

    def paper_mae_pp(self, outcomes: Dict[str, object]) -> float:
        return _mae_pp(_by_strategy(
            (strategy_id, outcomes[uid])
            for uid, strategy_id, keyword, _vantage, _seed in self._cells(0)
            if keyword and uid in outcomes
        ))

    def input_shares(self, passes: int) -> Dict[str, float]:
        from repro.experiments.runner import trial_seed

        trials = []
        for pass_index in range(passes):
            sites = self._sites.get(pass_index) or self._catalog(pass_index)
            for _uid, strategy_id, keyword, vantage, cell_seed in self._cells(pass_index):
                for w_index, site in enumerate(sites):
                    cell = (strategy_id, keyword, vantage, site, self.calibration)
                    trials.append((cell, trial_seed(cell_seed, 0, w_index, 0, strategy_id)))
        return _input_shares(trials)


class ConformanceMatrix:
    """The 924-cell ``default_cells()`` matrix at seed 2017, 6 repeats per
    cell, in an order permuted by ``--seed``; one pass only, because a
    second pass would repeat (cell, seed) pairs."""

    name = "conformance_matrix"
    latency_unit = "cell"
    REPEATS = 6
    MATRIX_SEED = 2017
    max_passes: Optional[int] = 1

    def __init__(self, seed: int) -> None:
        from repro.conformance import golden, matrix

        self.seed = seed
        cells = matrix.default_cells()
        random.Random(seed).shuffle(cells)
        self.cells = cells
        verdicts = golden.load_verdicts()
        if verdicts is None:
            raise FileNotFoundError("tests/golden/verdicts.json is missing")
        self.golden = verdicts["cells"]

    def units(self, pass_index: int) -> List[Unit]:
        return [Unit(cell.cell_id, self.REPEATS, self._runner(cell)) for cell in self.cells]

    def _runner(self, cell):
        from repro.conformance import matrix

        def run():
            result = matrix.run_cell(cell, repeats=self.REPEATS, seed=self.MATRIX_SEED)
            counts = [result.success, result.failure1, result.failure2]
            problems = _counts_problems(counts, self.REPEATS)
            expected = self.golden.get(cell.cell_id)
            if expected is None:
                problems.append("no golden verdict")
            elif result.verdict != expected["verdict"]:
                problems.append(
                    f"verdict {result.verdict!r} != golden {expected['verdict']!r}"
                )
            return counts, problems

        return run

    def paper_mae_pp(self, outcomes: Dict[str, object]) -> float:
        return _mae_pp(_by_strategy(
            (cell.strategy_id, outcomes[cell.cell_id])
            for cell in self.cells
            if cell.cell_id in outcomes
        ))

    def input_shares(self, passes: int) -> Dict[str, float]:
        # Trial seeds as ``run_cell`` derives them from the matrix seed.
        trials = [
            (cell.cell_id, (self.MATRIX_SEED * 1_000_003 + repeat) ^ cell.seed_salt())
            for cell in self.cells
            for repeat in range(self.REPEATS)
        ]
        return _input_shares(trials)


class FleetContended:
    """One ``run_fleet`` group (one shared GFW) per pass: ``FLOWS`` mixed
    benign/sensitive flows, 16x the shared flow table's ``MAX_FLOWS``,
    in waves of ``WINDOW`` flows on one shared heap."""

    name = "fleet_contended"
    #: Host latency is per wave: a group is one long call, a wave is
    #: the window of flows that share the heap and finish together.
    latency_unit = "wave"
    FLOWS = 12288
    MAX_FLOWS = 768
    WINDOW = 64
    max_passes: Optional[int] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = {0: self._spec(0)}

    def _spec(self, pass_index: int):
        from repro.experiments.fleet import FleetSpec

        return FleetSpec(
            flows=self.FLOWS,
            seed=derive_seed("fleet", self.seed, pass_index),
            groups=1,
            window=self.WINDOW,
            max_flows=self.MAX_FLOWS,
        )

    def units(self, pass_index: int) -> List[Unit]:
        if pass_index not in self.specs:
            self.specs[pass_index] = self._spec(pass_index)
        spec = self.specs[pass_index]
        return [Unit(self._uid(pass_index), spec.flows, self._runner(spec))]

    def _uid(self, pass_index: int) -> str:
        return f"p{pass_index}|fleet{self.specs[pass_index].seed}"

    def _runner(self, spec):
        from repro.experiments import fleet

        def run():
            result = fleet.run_fleet(spec, shards=1)
            problems = []
            if result.flows != spec.flows:
                problems.append(f"flows {result.flows} != spec {spec.flows}")
            counted = sum(sum(counts) for counts in result.outcomes.values())
            if counted != spec.flows:
                problems.append(f"outcome counts sum to {counted}, expected {spec.flows}")
            outcome = {
                "outcomes": {k: list(v) for k, v in sorted(result.outcomes.items())},
                "flow_events": result.flow_events,
                "flows_evicted": result.flows_evicted,
                "blacklistings": result.blacklistings,
            }
            return outcome, problems

        return run

    def paper_mae_pp(self, outcomes: Dict[str, object]) -> float:
        return _mae_pp(outcomes[self._uid(0)]["outcomes"])

    def input_shares(self, passes: int) -> Dict[str, float]:
        from repro.experiments.fleet import flow_spec

        trials = []
        for pass_index in range(passes):
            spec = self.specs.get(pass_index) or self._spec(pass_index)
            for index in range(spec.flows):
                flow = flow_spec(spec, index)
                cell = (flow.vantage, flow.website, flow.strategy_id, flow.sensitive)
                trials.append((cell, flow.seed))
        return _input_shares(trials)


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Fresh, ConformanceMatrix, FleetContended)
}
