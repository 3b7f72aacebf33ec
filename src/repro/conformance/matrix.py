"""Conformance-matrix enumeration and execution.

One **cell** is ``(strategy, gfw_variant, middlebox_profile, fault
point)``.  The harness runs every cell through the ordinary
scenario/runner machinery (:func:`repro.experiments.runner.
_simulate_http_trial` with the ``gfw_variant`` override) and tallies the
repeats into a :class:`CellResult` — the cell's
:class:`~repro.experiments.outcomes.VerdictDistribution` — whose
discrete **verdict** is :func:`~repro.experiments.outcomes.
classify_counts`:

- ``evades``  — at least half the repeats succeeded;
- ``blocked`` — a majority ended in Failure 2 (GFW resets);
- ``broken``  — a majority ended in Failure 1 (silence: the strategy
  itself kills the connection, e.g. Aliyun discarding fragments);
- ``mixed``   — none of the above holds (genuinely probabilistic cell).

Every cell is simulated afresh: conformance asks "what does the *code*
do today", never "what did it do last week".  The process pool is
exercised on purpose — worker-count independence is itself part of the
contract under test.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.calibration import CLEAN_ROOM, Calibration
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.parallel import map_trials
from repro.experiments.runner import _simulate_http_trial
from repro.experiments.scenarios import release_scenario
from repro.experiments.vantage import VantagePoint, vantage_by_name
from repro.experiments.websites import Website, outside_china_catalog
from repro.gfw.heterogeneity import HETEROGENEOUS_VARIANT, validate_variant
from repro.gfw.models import MODEL_VARIANTS
from repro.strategies.registry import STRATEGY_REGISTRY
from repro.telemetry.recorder import get_recorder

__all__ = [
    "CONFORMANCE_PROFILES",
    "CONFORMANCE_VARIANTS",
    "ConformanceCell",
    "CellResult",
    "DEFAULT_REPEATS",
    "DEFAULT_SEED",
    "FAULT_GRID",
    "FaultPoint",
    "cell_calibration",
    "default_cells",
    "fault_by_name",
    "profile_vantage",
    "run_cell",
    "run_matrix",
]

#: Matrix-wide defaults; the CLI exposes both as flags.
DEFAULT_REPEATS = 6
DEFAULT_SEED = 2017

#: The full conformance variant axis: every registered model variant
#: plus the ``heterogeneous`` pseudo-variant, which resolves to one
#: member per (vantage, target) route and layers the diurnal
#: reset-suppression curve on top (extension, not paper — see
#: :mod:`repro.gfw.heterogeneity`).  ``MODEL_VARIANTS`` itself stays
#: untouched: fleet defaults and population draws never pick
#: ``heterogeneous`` implicitly.
CONFORMANCE_VARIANTS: Tuple[str, ...] = tuple(MODEL_VARIANTS) + (
    HETEROGENEOUS_VARIANT,
)


@dataclass(frozen=True)
class FaultPoint:
    """One point of the loss/jitter fault grid (``Network`` knobs)."""

    name: str
    loss_rate: float
    jitter: float


#: The fault grid: a clean network and a degraded one.  The degraded
#: point stresses the retransmission paths without drowning the verdict
#: in noise (10 % per-leg drop at 6 repeats would make every cell
#: ``mixed``).
FAULT_GRID: Tuple[FaultPoint, ...] = (
    FaultPoint("clean", loss_rate=0.0, jitter=0.0),
    FaultPoint("lossy", loss_rate=0.02, jitter=0.15),
)

#: A lab vantage with no client-side middleboxes: the pure
#: strategy-vs-censor differential, uncontaminated by Table 2 equipment.
NEUTRAL_VANTAGE = VantagePoint(
    name="conformance-neutral",
    city="Beijing",
    isp="Lab",
    provider_profile="transparent",
    ip="42.120.99.10",
    tor_filtered=False,
)

#: profile key -> vantage carrying it.  ``neutral`` is the lab vantage;
#: the others are the real Table 2 profiles via their vantage points.
_PROFILE_VANTAGE_NAMES: Dict[str, Optional[str]] = {
    "neutral": None,
    "aliyun": "aliyun-beijing",
    "qcloud": "qcloud-beijing",
    "unicom-sjz": "unicom-shijiazhuang",
    "unicom-tj": "unicom-tianjin",
}

#: The default matrix covers the no-middlebox baseline plus the two
#: most behaviour-bending profiles (Aliyun's fragment DISCARD and
#: Tianjin's sanitizers, §7.1/Table 5).
CONFORMANCE_PROFILES: Tuple[str, ...] = ("neutral", "aliyun", "unicom-tj")


def profile_vantage(profile: str) -> VantagePoint:
    """The vantage point that carries a named middlebox profile."""
    try:
        name = _PROFILE_VANTAGE_NAMES[profile]
    except KeyError:
        known = ", ".join(sorted(_PROFILE_VANTAGE_NAMES))
        raise KeyError(
            f"unknown conformance profile {profile!r} (known: {known})"
        ) from None
    if name is None:
        return NEUTRAL_VANTAGE
    return vantage_by_name(name)


def fault_by_name(name: str) -> FaultPoint:
    for fault in FAULT_GRID:
        if fault.name == name:
            return fault
    known = ", ".join(f.name for f in FAULT_GRID)
    raise KeyError(f"unknown fault point {name!r} (known: {known})")


@dataclass(frozen=True)
class ConformanceCell:
    """One cell of the conformance matrix (picklable work unit)."""

    strategy_id: str
    gfw_variant: str
    profile: str
    fault: FaultPoint

    @property
    def cell_id(self) -> str:
        return (
            f"{self.strategy_id}|{self.gfw_variant}"
            f"|{self.profile}|{self.fault.name}"
        )

    def seed_salt(self) -> int:
        """Interpreter-stable (crc32, not ``hash``) per-cell seed salt."""
        return zlib.crc32(self.cell_id.encode("utf-8")) & 0xFFFFFF


@dataclass(frozen=True)
class CellResult(VerdictDistribution):
    """One cell's outcome tally; ``verdict`` is its point estimate and
    ``as_payload()`` its golden verdict row."""

    cell: ConformanceCell = field(kw_only=True)


def cell_calibration(fault: FaultPoint) -> Calibration:
    """The clean-room calibration dialled to one fault-grid point.

    Everything stochastic that is *not* the fault under test stays
    zeroed, so a verdict flip can only come from the strategy, the
    censor variant, the middlebox profile, or the injected fault.
    """
    return CLEAN_ROOM.variant(
        base_loss_rate=fault.loss_rate,
        path_jitter=fault.jitter,
    )


def conformance_site() -> Website:
    """The single fixed target site every cell fetches from."""
    return outside_china_catalog(count=1, seed=2017, calibration=CLEAN_ROOM)[0]


def default_cells(
    strategies: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
    profiles: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
) -> List[ConformanceCell]:
    """Enumerate the matrix in deterministic (registry) order."""
    strategy_ids = list(strategies or STRATEGY_REGISTRY)
    variant_ids = list(variants or CONFORMANCE_VARIANTS)
    profile_ids = list(profiles or CONFORMANCE_PROFILES)
    fault_points = [fault_by_name(name) for name in faults] if faults else list(FAULT_GRID)
    for strategy_id in strategy_ids:
        if strategy_id not in STRATEGY_REGISTRY:
            known = ", ".join(sorted(STRATEGY_REGISTRY))
            raise KeyError(f"unknown strategy {strategy_id!r} (known: {known})")
    for variant in variant_ids:
        validate_variant(variant)  # raises with the known list
    for profile in profile_ids:
        profile_vantage(profile)
    return [
        ConformanceCell(strategy_id, variant, profile, fault)
        for strategy_id in strategy_ids
        for variant in variant_ids
        for profile in profile_ids
        for fault in fault_points
    ]


def run_cell(
    cell: ConformanceCell,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
) -> CellResult:
    """Run one cell's repeats, one trial at a time, and tally them."""
    vantage = profile_vantage(cell.profile)
    website = conformance_site()
    calibration = cell_calibration(cell.fault)
    salt = cell.seed_salt()
    outcomes = []
    recorder = get_recorder()
    since = recorder.next_seq
    cell_span = recorder.begin(
        f"cell:{cell.cell_id}", "cell",
        strategy=cell.strategy_id, variant=cell.gfw_variant,
        profile=cell.profile, fault=cell.fault.name,
    )
    for repeat in range(repeats):
        record, scenario = _simulate_http_trial(
            vantage,
            website,
            cell.strategy_id,
            calibration,
            seed=(seed * 1_000_003 + repeat) ^ salt,
            keyword=True,
            gfw_variant=cell.gfw_variant,
        )
        release_scenario(scenario)
        outcomes.append(record.outcome)
    result = CellResult(*VerdictDistribution.from_outcomes(outcomes), cell=cell)
    recorder.end(cell_span, verdict=result.verdict)
    if result.verdict == "broken":
        # The strategy itself killed the connection: dump the cell's
        # events so the silence is attributable without a re-run.
        recorder.dump(
            "broken",
            since=since,
            context={
                "cell": cell.cell_id,
                "success": result.success,
                "failure1": result.failure1,
                "failure2": result.failure2,
            },
        )
    return result


def _cell_worker(task: Tuple) -> CellResult:
    """Process-pool work unit: one full cell."""
    cell, repeats, seed = task
    return run_cell(cell, repeats=repeats, seed=seed)


def run_matrix(
    cells: Optional[Sequence[ConformanceCell]] = None,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> Dict[str, CellResult]:
    """Run the matrix (fanned out a cell at a time), keyed by cell id.

    Per-cell seeds are fixed before fan-out, so the verdict map is
    identical for any worker count.
    """
    if cells is None:
        cells = default_cells()
    tasks = [(cell, repeats, seed) for cell in cells]
    # The sweep span stays open through the merge so worker-drained cell
    # spans attach under it.
    with get_recorder().span(
        "conformance.matrix", "sweep", cells=len(tasks), repeats=repeats
    ):
        results = map_trials(_cell_worker, tasks, workers=workers)
    return {result.cell.cell_id: result for result in results}
