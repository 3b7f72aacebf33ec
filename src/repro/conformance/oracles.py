"""Paper-derived verdict oracles for the conformance matrix.

Each :class:`OracleRule` states what verdict(s) a family of cells is
allowed to produce, with a ``provenance`` string naming the paper
passage that implies it.  Rules use :mod:`fnmatch` wildcards on every
axis and are consulted in order — **first match wins** — so specific
exceptions (a middlebox sanitizing a strategy's insertion packets, a
fault point washing a verdict out to ``mixed``) sit above the broad
table rows they carve out of.

Where the reproduction *intentionally* diverges from the paper's
numbers, the divergence is not hidden inside a permissive rule: it gets
an explicit :data:`KNOWN_DIVERGENCE` entry stating the paper's
expectation, the reproduction's verdict, and why the difference is
accepted.  ``repro conformance run`` prints these alongside failures so
a reader can always distinguish "modelled and accepted" from "drifted".
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.conformance.matrix import CellResult, ConformanceCell

__all__ = [
    "KNOWN_DIVERGENCE",
    "KnownDivergence",
    "ORACLE_RULES",
    "OracleRule",
    "VerdictDrift",
    "check_verdicts",
    "expected_verdicts",
    "find_rule",
]


@dataclass(frozen=True)
class OracleRule:
    """One row of the oracle table.

    ``strategy``/``variant``/``profile``/``fault`` are fnmatch patterns
    over the cell axes; ``allowed`` is the set of verdicts the rule
    admits; ``provenance`` cites the paper passage the expectation is
    derived from.
    """

    strategy: str
    variant: str
    profile: str
    fault: str
    allowed: Tuple[str, ...]
    provenance: str

    def matches(self, cell: ConformanceCell) -> bool:
        return (
            fnmatchcase(cell.strategy_id, self.strategy)
            and fnmatchcase(cell.gfw_variant, self.variant)
            and fnmatchcase(cell.profile, self.profile)
            and fnmatchcase(cell.fault.name, self.fault)
        )


@dataclass(frozen=True)
class KnownDivergence:
    """A cell family where the reproduction knowingly departs from the
    paper's reported behaviour (still enforced — via its own rule)."""

    strategy: str
    variant: str
    profile: str
    fault: str
    paper_expected: str
    repro_verdict: str
    reason: str

    def matches(self, cell: ConformanceCell) -> bool:
        return (
            fnmatchcase(cell.strategy_id, self.strategy)
            and fnmatchcase(cell.gfw_variant, self.variant)
            and fnmatchcase(cell.profile, self.profile)
            and fnmatchcase(cell.fault.name, self.fault)
        )


@dataclass(frozen=True)
class VerdictDrift:
    """One cell whose observed verdict escaped its oracle rule."""

    cell_id: str
    observed: str
    allowed: Tuple[str, ...]
    provenance: str

    def format(self) -> str:
        return (
            f"{self.cell_id}: observed {self.observed!r}, oracle allows "
            f"{'/'.join(self.allowed)}  [{self.provenance}]"
        )


# ---------------------------------------------------------------------------
# The oracle table.  Order matters: first match wins — middlebox
# carve-outs sit above the broad variant rows they puncture, and the
# degraded-network rows sit at the bottom.
# ---------------------------------------------------------------------------
ORACLE_RULES: List[OracleRule] = [
    # -- Heterogeneous pseudo-variant (extension, not paper) --------------
    # These cells run the Ensafi-style spatiotemporal model
    # (repro/gfw/heterogeneity.py): the route draws one member variant
    # (evolved/mixed/old) and a diurnal reset-suppression curve, so
    # verdicts here are *distributions* whose point estimate can differ
    # per route.  The block sits above every paper rule because the
    # variant="*" middlebox carve-outs below pin single verdicts that
    # load suppression is allowed to soften.  First the route-invariant
    # pins — behaviours Ensafi-style heterogeneity provably cannot flip
    # — then the catch-all that defers the route-dependent rest to the
    # blessed golden snapshot.
    OracleRule(
        "ooo-ip-fragments", "heterogeneous", "aliyun", "clean", ("broken",),
        "Extension (Ensafi et al., spatiotemporal inconsistencies): "
        "route-invariant — Aliyun's DISCARD fragment policy (Table 2) "
        "kills the fragmented request before *any* censor generation "
        "sees it, so no member variant or diurnal load level can change "
        "the silence",
    ),
    OracleRule(
        "improved-tcb-teardown", "heterogeneous", "*", "clean", ("evades",),
        "Extension (Ensafi et al.): route-invariant — §6.2's improved "
        "teardown evades old, evolved and mixed installations alike "
        "(golden: evades on every member variant), and load suppression "
        "only ever adds successes; per-path rule differences cannot "
        "surface here",
    ),
    OracleRule(
        "tcb-teardown+tcb-reversal", "heterogeneous", "*", "clean",
        ("evades",),
        "Extension (Ensafi et al.) + §7.1: combining strategies 'because "
        "both generations co-exist on real paths' is precisely the hedge "
        "against per-route heterogeneity — the combination evades "
        "whichever member variant the route ensemble draws",
    ),
    OracleRule(
        "none", "heterogeneous", "*", "*", ("blocked", "mixed", "evades"),
        "Extension (Ensafi et al.): diurnal load-dependent failure to "
        "inject RSTs — at peak hours a detected flow may draw no "
        "enforcement at all, so the no-strategy baseline wobbles from "
        "blocked toward mixed/evades with the route's suppression curve "
        "(never 'broken': nothing else kills the connection)",
    ),
    OracleRule(
        "*", "heterogeneous", "*", "*",
        ("evades", "blocked", "broken", "mixed"),
        "Extension (Ensafi et al.): route-dependent cells — the verdict "
        "is whichever member variant the seeded ensemble assigned the "
        "conformance route, softened by its temporal profile; pinned by "
        "the golden snapshot rather than the oracle",
    ),
    # -- Middlebox carve-outs (Table 2 / Table 5 / §7.1) ------------------
    OracleRule(
        "*bad-checksum", "*", "unicom-tj", "clean", ("blocked",),
        "Table 2/§7.1: Tianjin Unicom drops insertion packets with wrong "
        "checksums, re-exposing the keyword to the censor",
    ),
    OracleRule(
        "inorder-overlap/no-flag", "*", "unicom-tj", "clean", ("blocked",),
        "Table 2/§7.1: Tianjin Unicom drops insertion packets with no "
        "TCP flags set",
    ),
    OracleRule(
        "west-chamber", "old", "unicom-tj", "clean", ("blocked",),
        "Table 2/§7.1: West Chamber's wrong-checksum insertions are "
        "sanitized at Tianjin even against the old model",
    ),
    OracleRule(
        "tcb-teardown-fin/*", "old", "unicom-tj", "clean", ("blocked",),
        "Table 2 modelling: the Tianjin profile drops inserted bare FINs "
        "(see KNOWN_DIVERGENCE)",
    ),
    OracleRule(
        "ooo-ip-fragments", "*", "aliyun", "clean", ("broken",),
        "Table 5/§7.1: Aliyun middleboxes discard IP fragments — the "
        "request never arrives at all (Failure 1)",
    ),
    OracleRule(
        "ooo-ip-fragments", "*", "unicom-tj", "clean", ("blocked",),
        "§7.1: Tianjin equipment reassembles IP fragments in flight, "
        "re-exposing the keyword to the censor",
    ),
    # -- Baseline ---------------------------------------------------------
    OracleRule(
        "none", "*", "*", "clean", ("blocked",),
        "§3.3: a keyword request with no strategy is reset by every "
        "model generation (clean-room zeroes the ~2.8% overload residue; "
        "see KNOWN_DIVERGENCE)",
    ),
    OracleRule(
        "none", "*", "*", "lossy", ("blocked", "broken", "mixed"),
        "§3.3: no strategy never evades — loss can only silence the "
        "request, not sneak it past the censor",
    ),
    # -- TCB creation (Table 1) -------------------------------------------
    OracleRule(
        "tcb-creation-syn/*", "old", "*", "clean", ("evades",),
        "Table 1: a fake SYN desynchronizes the Khattak-era censor's TCB",
    ),
    OracleRule(
        "tcb-creation-syn/*", "evolved-nb2-off", "*", "clean", ("evades",),
        "§4.2: without the RESYNC state (NB2) the fake-SYN "
        "desynchronization sticks",
    ),
    OracleRule(
        "tcb-creation-syn/*", "*", "*", "clean", ("blocked",),
        "Table 1/§4.2: the evolved censor enters RESYNC on the ambiguous "
        "handshake (NB2) and re-locks onto the real stream",
    ),
    # -- Data reassembly (Table 1 / §4.3) ---------------------------------
    OracleRule(
        "ooo-ip-fragments", "*", "*", "clean", ("evades",),
        "Table 1: out-of-order IP fragments evade both generations on a "
        "path without reassembling middleboxes",
    ),
    OracleRule(
        "ooo-tcp-segments", "old", "*", "clean", ("evades",),
        "Table 1: the old model resolves out-of-order TCP segments "
        "last-wins and misses the split keyword",
    ),
    OracleRule(
        "ooo-tcp-segments", "*", "*", "clean", ("blocked",),
        "Table 1/§4.3: the evolved censor buffers and reorders TCP "
        "segments — under every NB1-NB3 ablation",
    ),
    OracleRule(
        "inorder-overlap/*", "*", "*", "clean", ("evades",),
        "Table 1: in-order data overlapping (first-wins reassembly) "
        "still evades both generations",
    ),
    # -- TCB teardown (Table 1 / §4.1) ------------------------------------
    OracleRule(
        "tcb-teardown-rst*", "old", "*", "clean", ("evades",),
        "Table 1: RST/RST-ACK teardown removes the old censor's TCB",
    ),
    OracleRule(
        "tcb-teardown-rst*", "evolved-nb2-off", "*", "clean", ("evades",),
        "§4.1: with no RESYNC state to fall into, teardown sticks",
    ),
    OracleRule(
        "tcb-teardown-rst*", "evolved-nb3-off", "*", "clean", ("evades",),
        "§4.1: with the NB3 coin forced off, client RSTs tear down "
        "instead of resynchronizing",
    ),
    OracleRule(
        "tcb-teardown-rst*", "*", "*", "clean", ("blocked",),
        "Table 1/§4.1 (NB3): the evolved censor treats the inserted RST "
        "as a resynchronization trigger, not a teardown",
    ),
    OracleRule(
        "tcb-teardown-fin/*", "old", "*", "clean", ("evades",),
        "Table 1: FIN teardown worked against the old model",
    ),
    OracleRule(
        "tcb-teardown-fin/*", "*", "*", "clean", ("blocked",),
        "§4.1: the evolved censor no longer tears down on FIN — under "
        "every NB1-NB3 ablation",
    ),
    # -- West Chamber (Table 1) -------------------------------------------
    OracleRule(
        "west-chamber", "old", "*", "clean", ("evades",),
        "Table 1: West Chamber worked against the Khattak-era censor",
    ),
    OracleRule(
        "west-chamber", "*", "*", "clean", ("blocked",),
        "Table 1: West Chamber no longer works against the evolved censor",
    ),
    # -- New attacks on the evolved model (§5.1 / §5.2) -------------------
    OracleRule(
        "resync-desync", "old", "*", "clean", ("blocked",),
        "§5.1: the old model has no RESYNC state to desynchronize",
    ),
    OracleRule(
        "resync-desync", "evolved-nb2-off", "*", "clean", ("blocked",),
        "§5.1: with NB2 ablated there is no RESYNC state to exploit",
    ),
    OracleRule(
        "resync-desync", "mixed", "*", "clean", ("blocked",),
        "§5.1: the mixed cluster's old-model device still catches the "
        "flow even while the evolved one is desynchronized",
    ),
    OracleRule(
        "resync-desync", "*", "*", "clean", ("evades",),
        "§5.1: an insertion packet poisons the RESYNC re-lock, leaving "
        "the censor out-of-window for the real request",
    ),
    OracleRule(
        "tcb-reversal", "old", "*", "clean", ("blocked",),
        "§5.2: the old model ignores SYN/ACKs, so no reversed TCB exists",
    ),
    OracleRule(
        "tcb-reversal", "evolved-nb1-off", "*", "clean", ("blocked",),
        "§5.2: reversal requires TCB-on-SYN/ACK (NB1); ablating it "
        "restores normal tracking",
    ),
    OracleRule(
        "tcb-reversal", "mixed", "*", "clean", ("blocked",),
        "§5.2: the mixed cluster's old-model device tracks the flow "
        "the ordinary way",
    ),
    OracleRule(
        "tcb-reversal", "*", "*", "clean", ("evades",),
        "§5.2: the SYN/ACK-created TCB has client and server reversed — "
        "the monitored direction never carries the keyword",
    ),
    # -- Improved / combined strategies (§5.3 / §5.4, Table 4) ------------
    OracleRule(
        "improved-tcb-teardown", "*", "*", "clean", ("evades",),
        "§5.3/Table 4: the improved teardown volley works against every "
        "model generation and ablation",
    ),
    OracleRule(
        "improved-inorder-overlap", "*", "*", "clean", ("evades",),
        "§5.3/Table 4: the improved in-order overlap works against every "
        "model generation and ablation",
    ),
    OracleRule(
        "tcb-creation+resync-desync", "*", "*", "clean", ("evades",),
        "§5.4: the combination covers both generations — the fake SYN "
        "beats the old model, the desync beats the evolved one",
    ),
    OracleRule(
        "tcb-teardown+tcb-reversal", "evolved-nb1-off", "*", "clean",
        ("blocked",),
        "§5.4 ablation: the reversal half requires NB1 and the teardown "
        "half is resynchronized away by NB3 — ablating NB1 alone defeats "
        "the combination",
    ),
    OracleRule(
        "tcb-teardown+tcb-reversal", "*", "*", "clean", ("evades",),
        "§5.4: the combination covers both generations",
    ),
    # -- Degraded network (fault grid) ------------------------------------
    OracleRule(
        "*", "*", "*", "lossy", ("evades", "blocked", "broken", "mixed"),
        "§3.4: residual failures track packet loss — the paper tables "
        "make no per-loss-rate prediction, so degraded-grid verdicts are "
        "pinned by the golden snapshot rather than the oracle",
    ),
]

KNOWN_DIVERGENCE: List[KnownDivergence] = [
    KnownDivergence(
        strategy="none", variant="*", profile="*", fault="clean",
        paper_expected="mixed",
        repro_verdict="blocked",
        reason=(
            "§3.4 reports a ~2.8% baseline success rate attributed to "
            "censor overload; the conformance calibration zeroes the "
            "miss probability so the baseline is strictly blocked and "
            "every other verdict flip is attributable to the cell axes."
        ),
    ),
    KnownDivergence(
        strategy="tcb-teardown-fin/*", variant="old", profile="unicom-tj",
        fault="clean",
        paper_expected="evades",
        repro_verdict="blocked",
        reason=(
            "Table 1 expects FIN teardown to beat the old model from "
            "every vantage; the reproduction's Tianjin profile drops "
            "inserted bare FINs deterministically (its Table 2 sanitizer "
            "modelling), so the insertion never reaches the censor."
        ),
    ),
]


def find_rule(cell: ConformanceCell) -> Optional[OracleRule]:
    """The first oracle rule matching a cell, or None (uncovered)."""
    for rule in ORACLE_RULES:
        if rule.matches(cell):
            return rule
    return None


def expected_verdicts(cell: ConformanceCell) -> Optional[Tuple[str, ...]]:
    rule = find_rule(cell)
    return rule.allowed if rule is not None else None


def check_verdicts(
    results: Dict[str, CellResult],
) -> Tuple[List[VerdictDrift], List[str]]:
    """Check every observed verdict against the oracle table.

    Returns ``(drifts, uncovered)``: cells whose verdict escaped their
    rule, and cell ids no rule matches at all.  An uncovered cell is a
    harness bug (the table must blanket the matrix), so callers treat
    both lists as failures.
    """
    drifts: List[VerdictDrift] = []
    uncovered: List[str] = []
    for cell_id, result in results.items():
        rule = find_rule(result.cell)
        if rule is None:
            uncovered.append(cell_id)
            continue
        if result.verdict not in rule.allowed:
            drifts.append(
                VerdictDrift(
                    cell_id=cell_id,
                    observed=result.verdict,
                    allowed=rule.allowed,
                    provenance=rule.provenance,
                )
            )
    return drifts, uncovered
