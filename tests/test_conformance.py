"""The differential conformance harness (strategy × variant × profile ×
fault) and its paper-derived oracles.

Fast tests pin the machinery: variant factories, verdict reduction,
oracle coverage/matching, per-cell determinism, worker-count parity,
and one committed golden ladder.  The full 792-cell matrix against the
oracle table and the blessed snapshot is marked ``slow`` and runs as its
own CI job (``repro conformance run`` is the same check as a command).
"""

import json

import pytest

from repro.conformance import (
    CONFORMANCE_PROFILES,
    CONFORMANCE_VARIANTS,
    ConformanceCell,
    check_verdicts,
    classify_counts,
    compare_golden,
    default_cells,
    golden_cells,
    golden_dir,
    run_cell,
    run_matrix,
)
from repro.conformance.golden import capture_ladder, ladder_filename
from repro.conformance.matrix import CellResult, fault_by_name, profile_vantage
from repro.conformance.oracles import (
    KNOWN_DIVERGENCE,
    ORACLE_RULES,
    find_rule,
)
from repro.gfw.models import MODEL_VARIANTS, model_variant_configs
from repro.strategies.registry import STRATEGY_REGISTRY


# ---------------------------------------------------------------------------
# model variants
# ---------------------------------------------------------------------------
def test_model_variants_cover_generations_and_ablations():
    assert "old" in MODEL_VARIANTS
    assert "evolved" in MODEL_VARIANTS
    # One ablation per new behaviour NB1-NB3 (§4).
    for ablation in ("evolved-nb1-off", "evolved-nb2-off", "evolved-nb3-off"):
        assert ablation in MODEL_VARIANTS
    assert len(MODEL_VARIANTS) >= 3


def test_model_variant_configs_are_fresh_and_validated():
    first = model_variant_configs("evolved")
    second = model_variant_configs("evolved")
    assert first[0] is not second[0]  # mutating one run can't leak
    assert first[0].creates_tcb_on_synack
    assert not model_variant_configs("evolved-nb1-off")[0].creates_tcb_on_synack
    assert not model_variant_configs("evolved-nb2-off")[0].supports_resync
    assert model_variant_configs("evolved-nb3-off")[0].resync_on_rst_probability == 0.0
    assert len(model_variant_configs("mixed")) == 2
    with pytest.raises(KeyError):
        model_variant_configs("gfw-9000")


# ---------------------------------------------------------------------------
# verdict reduction
# ---------------------------------------------------------------------------
def test_classify_counts_majorities_and_ties():
    assert classify_counts(6, 0, 0) == "evades"
    assert classify_counts(3, 1, 2) == "evades"  # half success still evades
    assert classify_counts(0, 0, 6) == "blocked"
    assert classify_counts(0, 6, 0) == "broken"
    assert classify_counts(2, 2, 2) == "mixed"
    assert classify_counts(0, 3, 3) == "mixed"  # no strict majority
    assert classify_counts(0, 0, 0) == "mixed"
    assert classify_counts(0, 2, 4) == "blocked"
    assert classify_counts(0, 4, 2) == "broken"


# ---------------------------------------------------------------------------
# matrix enumeration (the acceptance-criteria shape)
# ---------------------------------------------------------------------------
def test_default_matrix_covers_required_axes():
    cells = default_cells()
    strategies = {cell.strategy_id for cell in cells}
    variants = {cell.gfw_variant for cell in cells}
    profiles = {cell.profile for cell in cells}
    faults = {cell.fault.name for cell in cells}
    assert strategies == set(STRATEGY_REGISTRY)  # every registered strategy
    # Every registered model variant plus the heterogeneous pseudo-variant;
    # MODEL_VARIANTS itself must stay free of it (fleet defaults and
    # population draws never pick heterogeneous implicitly).
    assert variants == set(CONFORMANCE_VARIANTS)
    assert variants == set(MODEL_VARIANTS) | {"heterogeneous"}
    assert "heterogeneous" not in MODEL_VARIANTS
    assert len(variants) >= 3
    assert profiles == set(CONFORMANCE_PROFILES)
    assert len(faults) >= 2
    assert len(cells) == (
        len(strategies) * len(variants) * len(profiles) * len(faults)
    )


def test_default_cells_validates_axis_names():
    with pytest.raises(KeyError):
        default_cells(strategies=["no-such-strategy"])
    with pytest.raises(KeyError):
        default_cells(variants=["no-such-variant"])
    with pytest.raises(KeyError):
        default_cells(profiles=["no-such-profile"])
    with pytest.raises(KeyError):
        default_cells(faults=["no-such-fault"])
    subset = default_cells(strategies=["none"], variants=["old"],
                           profiles=["neutral"], faults=["clean"])
    assert len(subset) == 1
    assert subset[0].cell_id == "none|old|neutral|clean"


def test_profile_vantages_carry_expected_middleboxes():
    assert profile_vantage("neutral").provider_profile == "transparent"
    assert profile_vantage("aliyun").provider_profile == "aliyun"
    assert profile_vantage("unicom-tj").provider_profile == "unicom-tj"


# ---------------------------------------------------------------------------
# oracle table
# ---------------------------------------------------------------------------
def test_oracle_rules_blanket_the_default_matrix():
    uncovered = [c.cell_id for c in default_cells() if find_rule(c) is None]
    assert uncovered == []


def test_oracle_rules_all_cite_provenance():
    for rule in ORACLE_RULES:
        assert rule.provenance.strip()
        assert rule.allowed
        for verdict in rule.allowed:
            assert verdict in ("evades", "blocked", "broken", "mixed")


def test_known_divergences_match_their_enforcing_rules():
    """Every divergence entry must agree with the rule that enforces it:
    the divergence's repro verdict is allowed, the paper's isn't."""
    assert KNOWN_DIVERGENCE  # the list is part of the deliverable
    for entry in KNOWN_DIVERGENCE:
        probe = ConformanceCell(
            entry.strategy.replace("*", "ttl"),
            "old" if entry.variant == "*" else entry.variant,
            "neutral" if entry.profile == "*" else entry.profile,
            fault_by_name("clean" if entry.fault == "*" else entry.fault),
        )
        rule = find_rule(probe)
        assert rule is not None, f"no rule enforces {entry}"
        assert entry.repro_verdict in rule.allowed
        assert entry.paper_expected not in rule.allowed
        assert entry.reason.strip()


def test_check_verdicts_flags_drift_and_uncovered():
    ok = CellResult(
        cell=ConformanceCell("none", "old", "neutral", fault_by_name("clean")),
        failure2=6,
    )
    drifted = CellResult(
        cell=ConformanceCell("none", "evolved", "neutral",
                             fault_by_name("clean")),
        success=6,  # "none" evading would be a serious regression
    )
    unknown = CellResult(
        cell=ConformanceCell("none", "old", "neutral", fault_by_name("clean")),
        failure2=6,
    )
    object.__setattr__(unknown.cell, "strategy_id", "mystery-strategy")
    results = {
        ok.cell.cell_id: ok,
        drifted.cell.cell_id: drifted,
        unknown.cell.cell_id: unknown,
    }
    drifts, uncovered = check_verdicts(results)
    assert [d.cell_id for d in drifts] == ["none|evolved|neutral|clean"]
    assert drifts[0].observed == "evades"
    assert "blocked" in drifts[0].allowed
    assert drifts[0].provenance
    assert uncovered == ["mystery-strategy|old|neutral|clean"]


# ---------------------------------------------------------------------------
# cell execution: determinism and worker parity
# ---------------------------------------------------------------------------
def test_run_cell_is_seed_deterministic():
    cell = ConformanceCell("tcb-teardown-rst/ttl", "evolved", "neutral",
                           fault_by_name("clean"))
    first = run_cell(cell, repeats=4, seed=11)
    second = run_cell(cell, repeats=4, seed=11)
    assert first.as_payload() == second.as_payload()
    assert first.trials == 4


def test_forced_variant_is_differential():
    """The same strategy must meet genuinely different censors: RST
    teardown beats the old model and loses to the evolved one (NB3)."""
    old = run_cell(
        ConformanceCell("tcb-teardown-rst/ttl", "old", "neutral",
                        fault_by_name("clean")),
        repeats=3,
    )
    evolved = run_cell(
        ConformanceCell("tcb-teardown-rst/ttl", "evolved", "neutral",
                        fault_by_name("clean")),
        repeats=3,
    )
    assert old.verdict == "evades"
    assert evolved.verdict == "blocked"


def test_matrix_verdicts_identical_serial_vs_two_workers():
    """Same seed => identical verdict map for any worker count, on a
    lossy/jittery cell set."""
    cells = default_cells(
        strategies=["tcb-teardown-rst/ttl", "resync-desync"],
        variants=["evolved", "evolved-nb3-off"],
        profiles=["neutral"],
        faults=["lossy"],
    )
    serial = run_matrix(cells, repeats=4, seed=5, workers=0)
    fanned = run_matrix(cells, repeats=4, seed=5, workers=2)
    assert {k: v.as_payload() for k, v in serial.items()} == \
        {k: v.as_payload() for k, v in fanned.items()}


# ---------------------------------------------------------------------------
# golden artifacts
# ---------------------------------------------------------------------------
def test_one_committed_golden_ladder_matches():
    """A fast single-cell pin of the full ladder check: the canonical
    tcb-reversal trace against the evolved censor."""
    cell = next(
        c for c in golden_cells() if c.strategy_id == "tcb-reversal"
    )
    blessed = (golden_dir() / ladder_filename(cell)).read_text()
    assert blessed == capture_ladder(cell)


def test_golden_snapshot_exists_and_is_well_formed():
    snapshot = json.loads((golden_dir() / "verdicts.json").read_text())
    cells = snapshot["cells"]
    assert len(cells) == len(default_cells())
    for cell_id, row in cells.items():
        assert row["verdict"] in ("evades", "blocked", "broken", "mixed")
        assert row["success"] + row["failure1"] + row["failure2"] == \
            snapshot["repeats"]
        assert len(cell_id.split("|")) == 4


@pytest.mark.slow
def test_full_matrix_conforms_to_oracles_and_goldens():
    """The tentpole check, as a test: every registered strategy against
    every GFW model variant, every conformance profile, and the whole
    fault grid — no verdict drift from the paper-derived oracles, no
    un-blessed divergence from the golden snapshot or ladders."""
    results = run_matrix()
    drifts, uncovered = check_verdicts(results)
    assert uncovered == []
    assert [d.format() for d in drifts] == []
    diff = compare_golden(results)
    assert diff.clean, diff.format()
