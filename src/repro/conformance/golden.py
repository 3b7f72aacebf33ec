"""Golden verdict snapshot and canonical trace ladders.

Two kinds of blessed artifacts live under ``tests/golden/``:

- ``verdicts.json`` — the full verdict map of the conformance matrix
  (every cell's counts and verdict at the canonical repeats/seed).  The
  oracle table (:mod:`repro.conformance.oracles`) states what the paper
  *allows*; this snapshot pins what the code *does*, so a behaviour
  change that stays inside the oracle's tolerance is still surfaced.
- ``*.ladder`` — one canonical packet ladder per registered strategy
  (evolved censor, neutral profile, clean network, fixed seed): the
  wire-level shape of the strategy, as rendered by
  :meth:`~repro.netsim.trace.TraceRecorder.format_ladder`.

``repro conformance run`` fails on any un-blessed difference;
``repro conformance diff`` shows the differences; ``repro conformance
bless`` rewrites the artifacts after a reviewed, intentional change.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.matrix import (
    CellResult,
    ConformanceCell,
    DEFAULT_SEED,
    FAULT_GRID,
)
from repro.strategies.registry import STRATEGY_REGISTRY

__all__ = [
    "GoldenDiff",
    "VERDICTS_FILE",
    "bless",
    "capture_ladder",
    "compare_golden",
    "golden_cells",
    "golden_dir",
    "ladder_filename",
    "load_verdicts",
]

VERDICTS_FILE = "verdicts.json"


def golden_dir() -> Path:
    """``tests/golden/`` resolved from the repository layout.

    The conformance harness is a development tool: it assumes a source
    checkout (``src/repro/…`` next to ``tests/``), like the table
    reproductions assume the paper datasets.
    """
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_cells() -> List[ConformanceCell]:
    """The representative traced cell for every registered strategy:
    evolved censor, neutral profile, clean network."""
    return [
        ConformanceCell(strategy_id, "evolved", "neutral", FAULT_GRID[0])
        for strategy_id in STRATEGY_REGISTRY
    ]


def ladder_filename(cell: ConformanceCell) -> str:
    """A filesystem-safe name for a cell's ladder file."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", cell.cell_id) + ".ladder"


def capture_ladder(cell: ConformanceCell, seed: int = DEFAULT_SEED) -> str:
    """One traced run of a cell, rendered as a self-describing ladder."""
    from repro.experiments.runner import _simulate_http_trial
    from repro.experiments.scenarios import release_scenario

    (kwargs,) = cell.trial_kwargs(seed)
    record, scenario = _simulate_http_trial(
        **kwargs,
        keyword=True,
        trace=True,
        stop_at_verdict=False,  # the ladder shows the whole exchange
    )
    assert scenario.trace is not None
    ladder = scenario.trace.format_ladder()
    release_scenario(scenario)
    header = [
        f"# cell: {cell.cell_id}",
        f"# seed: {seed}",
        f"# outcome: {record.outcome.value}",
    ]
    return "\n".join(header) + "\n" + ladder + "\n"


def load_verdicts(directory: Optional[Path] = None) -> Optional[Dict]:
    directory = directory or golden_dir()
    path = directory / VERDICTS_FILE
    if not path.exists():
        return None
    return json.loads(path.read_text())


@dataclass
class GoldenDiff:
    """Everything that differs between current behaviour and the blessed
    artifacts.  ``clean`` is True only when *nothing* differs."""

    #: (cell_id, blessed verdict, observed verdict)
    verdict_changes: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Cells present now but absent from the snapshot (new strategies…).
    unblessed_cells: List[str] = field(default_factory=list)
    #: Cells in the snapshot that the matrix no longer produces.
    vanished_cells: List[str] = field(default_factory=list)
    #: cell_id -> unified diff of blessed vs. observed ladder.
    ladder_diffs: Dict[str, str] = field(default_factory=dict)
    #: Golden cells with no blessed ladder file on disk.
    unblessed_ladders: List[str] = field(default_factory=list)
    #: No snapshot file exists at all (first run: bless to create).
    snapshot_missing: bool = False

    @property
    def clean(self) -> bool:
        return not (
            self.verdict_changes
            or self.unblessed_cells
            or self.vanished_cells
            or self.ladder_diffs
            or self.unblessed_ladders
            or self.snapshot_missing
        )

    def format(self, max_ladder_lines: int = 40) -> str:
        if self.clean:
            return "golden: clean (verdict snapshot and ladders match)"
        lines: List[str] = []
        if self.snapshot_missing:
            lines.append(
                f"golden: no {VERDICTS_FILE} snapshot — run "
                "`repro conformance bless` to create it"
            )
        for cell_id, blessed, observed in self.verdict_changes:
            lines.append(
                f"verdict drift vs snapshot: {cell_id}: "
                f"{blessed!r} -> {observed!r}"
            )
        for cell_id in self.unblessed_cells:
            lines.append(f"unblessed cell (not in snapshot): {cell_id}")
        for cell_id in self.vanished_cells:
            lines.append(f"vanished cell (snapshot only): {cell_id}")
        for cell_id in self.unblessed_ladders:
            lines.append(f"unblessed ladder (no golden file): {cell_id}")
        for cell_id, diff in self.ladder_diffs.items():
            lines.append(f"ladder drift: {cell_id}")
            shown = diff.splitlines()
            if len(shown) > max_ladder_lines:
                omitted = len(shown) - max_ladder_lines
                shown = shown[:max_ladder_lines] + [f"  … ({omitted} more lines)"]
            lines.extend("  " + line for line in shown)
        return "\n".join(lines)


def compare_golden(
    results: Dict[str, CellResult],
    directory: Optional[Path] = None,
    seed: int = DEFAULT_SEED,
    cells: Optional[Sequence[ConformanceCell]] = None,
) -> GoldenDiff:
    """Diff current behaviour against the blessed artifacts.

    ``results`` is a (possibly partial) matrix run; only snapshot rows
    for cells present in ``results`` are compared, so a filtered run
    never reports the filtered-out remainder as vanished.  Ladders are
    re-captured live for ``cells`` (default: all golden cells whose
    strategy appears in ``results``).
    """
    directory = directory or golden_dir()
    diff = GoldenDiff()

    snapshot = load_verdicts(directory)
    if snapshot is None:
        diff.snapshot_missing = True
    else:
        blessed: Dict[str, Dict] = snapshot.get("cells", {})
        # A filtered run restricts each axis independently; a snapshot
        # row only counts as vanished when this run *would* have
        # produced it — i.e. all four of its axis values were in scope.
        axes_seen = tuple(
            {axis(r.cell) for r in results.values()}
            for axis in (
                lambda c: c.strategy_id,
                lambda c: c.gfw_variant,
                lambda c: c.profile,
                lambda c: c.fault.name,
            )
        )
        for cell_id, result in results.items():
            row = blessed.get(cell_id)
            if row is None:
                diff.unblessed_cells.append(cell_id)
            elif row["verdict"] != result.verdict:
                diff.verdict_changes.append(
                    (cell_id, row["verdict"], result.verdict)
                )
        for cell_id in blessed:
            parts = cell_id.split("|")
            if cell_id not in results and len(parts) == 4 and all(
                part in seen for part, seen in zip(parts, axes_seen)
            ):
                diff.vanished_cells.append(cell_id)

    if cells is None:
        strategies_seen = {r.cell.strategy_id for r in results.values()}
        cells = [
            cell for cell in golden_cells()
            if cell.strategy_id in strategies_seen
        ]
    for cell in cells:
        path = directory / ladder_filename(cell)
        observed = capture_ladder(cell, seed=seed)
        if not path.exists():
            diff.unblessed_ladders.append(cell.cell_id)
            continue
        blessed_text = path.read_text()
        if blessed_text != observed:
            import difflib  # only a drifted ladder is diffed

            diff.ladder_diffs[cell.cell_id] = "\n".join(
                difflib.unified_diff(
                    blessed_text.splitlines(),
                    observed.splitlines(),
                    fromfile=f"blessed/{path.name}",
                    tofile="observed",
                    lineterm="",
                )
            )
    return diff


def bless(
    results: Dict[str, CellResult],
    directory: Optional[Path] = None,
    seed: int = DEFAULT_SEED,
    repeats: Optional[int] = None,
    cells: Optional[Sequence[ConformanceCell]] = None,
) -> List[Path]:
    """Write the verdict snapshot and golden ladders; returns the paths.

    Partial blessing is deliberate (a filtered run updates only its own
    rows): existing snapshot rows outside ``results`` are preserved.
    """
    directory = directory or golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    snapshot = load_verdicts(directory) or {"cells": {}}
    snapshot["seed"] = seed
    if repeats is not None:
        snapshot["repeats"] = repeats
    snapshot["cells"].update(
        {cell_id: result.as_payload() for cell_id, result in results.items()}
    )
    snapshot["cells"] = dict(sorted(snapshot["cells"].items()))
    verdicts_path = directory / VERDICTS_FILE
    verdicts_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    written.append(verdicts_path)

    if cells is None:
        strategies_seen = {r.cell.strategy_id for r in results.values()}
        cells = [
            cell for cell in golden_cells()
            if cell.strategy_id in strategies_seen
        ]
    for cell in cells:
        path = directory / ladder_filename(cell)
        path.write_text(capture_ladder(cell, seed=seed))
        written.append(path)
    return written
