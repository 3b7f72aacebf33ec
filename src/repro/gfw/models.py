"""Configuration presets: the old (Khattak-era) and evolved GFW models.

Every behavioural difference the paper establishes between the model
assumed by prior work and the model it infers in §4 is a field of
:class:`GFWConfig`; :func:`old_config` and :func:`evolved_config` produce
the two presets, and experiments mix device instances of both (§7.1:
strategies are *combined* precisely because both generations co-exist on
real paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

from repro.netstack.fragment import OverlapPolicy
from repro.gfw.blacklist import DEFAULT_BLACKLIST_DURATION
from repro.gfw.rules import RuleSet


@dataclass
class GFWConfig:
    """All knobs of one GFW device instance."""

    #: "old" or "evolved"; selects the state-machine generation.
    model: str = "evolved"
    #: Reset signature type (§2.1): 1 = RST/random TTL+window,
    #: 2 = RST/ACK ×3 with cyclic TTL+window, blacklist, forged SYN/ACKs.
    reset_type: int = 2
    rules: RuleSet = field(default_factory=RuleSet)

    # -- TCB lifecycle -------------------------------------------------------
    #: NB1: evolved devices create a TCB from a bare SYN/ACK.
    creates_tcb_on_synack: bool = True
    #: Prior assumption 3 vs evolved reality: FIN teardown.
    fin_tears_down: bool = False
    #: NB3: probability a RST puts the device in RESYNC instead of
    #: tearing the TCB down, after the handshake has completed…
    resync_on_rst_probability: float = 0.20
    #: …and during the handshake window, where the paper found it happens
    #: "way more frequently".
    resync_on_rst_handshake_probability: float = 0.80

    # -- resynchronization (NB2) ---------------------------------------------
    #: Whether the RESYNC state exists at all (False for the old model,
    #: which ignores later SYNs entirely).
    supports_resync: bool = True

    # -- hypothetical designs (§4's eliminated hypotheses) ---------------------
    #: §4 hypothesis (2): a "stateless mode" that matches keywords on
    #: each packet individually instead of reassembling first.  The
    #: paper *disproved* this for the real GFW (split keywords are still
    #: detected); the knob exists so that experiment is runnable.
    stateless_mode: bool = False

    # -- packet acceptance (the GFW-side of Table 3) -------------------------
    validates_checksum: bool = False
    drops_unsolicited_md5: bool = False
    checks_timestamps: bool = False
    validates_ack_number: bool = False
    validates_ip_total_length: bool = False
    validates_tcp_header_length: bool = False
    #: Some evolved device instances ignore flag-less segments; the ~50 %
    #: "no TCP flag" failure rate of Table 1 reflects a device mixture.
    accepts_no_flag_data: bool = True
    requires_ack_flag: bool = False

    # -- reassembly preferences -----------------------------------------------
    #: Out-of-order TCP segment overlap: the old model prefers the latter
    #: (Khattak), most evolved devices the former.
    tcp_ooo_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS
    #: IP fragment overlap: both generations prefer the former (§3.2).
    ip_frag_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS

    # -- operational ------------------------------------------------------------
    #: Maximum concurrent TCBs one device tracks; the least recently
    #: touched flow is evicted to admit a new one (§2.1: stateful
    #: tracking is costly, so the real device bounds it too).  The
    #: default comfortably covers every simulated trial — eviction only
    #: matters for the resource-exhaustion ablations.
    max_flows: int = 4096
    #: Probability (drawn once per flow, shared across the cluster) that
    #: an overloaded GFW fails to act on a flow; the paper measures a
    #: persistent ~2.8 % no-strategy success rate (§3.4).
    miss_probability: float = 0.028
    blacklist_duration: float = DEFAULT_BLACKLIST_DURATION
    #: Diurnal load profile (a :class:`repro.gfw.heterogeneity.
    #: TemporalProfile`, duck-typed to avoid the import cycle).  ``None``
    #: — the default for every registered variant — means no load
    #: modulation and, critically, no extra RNG draws: the historical
    #: draw order and every golden pin stay byte-identical.
    #: Routes of the ``heterogeneous`` pseudo-variant get one installed
    #: at scenario build.
    temporal: object = None
    #: Simulated hour-of-day the trial runs at; only consulted when
    #: ``temporal`` is set (see ``Calibration.sim_hour``).
    sim_hour: float = 12.0
    #: Sequence window tolerated around the expected client seq.
    seq_window: int = 65535
    #: This device performs Tor active probing (§7.3: absent on paths
    #: from Northern China).
    tor_active_probing: bool = True
    #: UDP DNS poisoning enabled.
    dns_poisoning: bool = True

    def variant(self, **changes: object) -> "GFWConfig":
        """A copy with ``changes`` applied (rules shared intentionally)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def old_config(reset_type: int = 1, **changes: object) -> GFWConfig:
    """The model prior work assumed (§3.2 'prior assumptions')."""
    config = GFWConfig(
        model="old",
        reset_type=reset_type,
        creates_tcb_on_synack=False,
        fin_tears_down=True,
        resync_on_rst_probability=0.0,
        resync_on_rst_handshake_probability=0.0,
        supports_resync=False,
        tcp_ooo_policy=OverlapPolicy.LAST_WINS,
    )
    return config.variant(**changes) if changes else config


def evolved_config(reset_type: int = 2, **changes: object) -> GFWConfig:
    """The model inferred by §4 (new behaviors NB1–NB3)."""
    config = GFWConfig(model="evolved", reset_type=reset_type)
    return config.variant(**changes) if changes else config


#: Convenience presets.
OLD_GFW = old_config()
EVOLVED_GFW = evolved_config()


# ---------------------------------------------------------------------------
# Named model variants (conformance ablations)
# ---------------------------------------------------------------------------
#: Named installation variants for the differential conformance harness:
#: each maps to a factory producing the *exact* device configs of one
#: installation — no population draws — so a conformance cell's verdict is
#: a pure function of (strategy, variant, profile, fault point, seed).
#: The NB ablations flip one §4 finding at a time, which is what makes
#: the matrix differential: a strategy that exploits NB1 must flip its
#: verdict between ``evolved`` and ``evolved-nb1-off``.
MODEL_VARIANT_FACTORIES: Dict[str, Callable[[], List[GFWConfig]]] = {
    # The model prior work assumed (§3.2); Table 1's strategies were
    # designed against exactly this state machine.
    "old": lambda: [old_config(reset_type=1)],
    # The §4 evolved model with every new behaviour on, but the NB3 coin
    # pinned heads (RST always resyncs) so the variant is deterministic.
    "evolved": lambda: [
        evolved_config(
            resync_on_rst_probability=1.0,
            resync_on_rst_handshake_probability=1.0,
        )
    ],
    # NB1 ablation: no TCB from a bare SYN/ACK (§4 "TCB creation").
    "evolved-nb1-off": lambda: [
        evolved_config(
            creates_tcb_on_synack=False,
            resync_on_rst_probability=1.0,
            resync_on_rst_handshake_probability=1.0,
        )
    ],
    # NB2 ablation: the RESYNC state does not exist (§4 "resync state").
    "evolved-nb2-off": lambda: [
        evolved_config(
            supports_resync=False,
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=0.0,
        )
    ],
    # NB3 ablation: RST always tears the TCB down, never resyncs.
    "evolved-nb3-off": lambda: [
        evolved_config(
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=0.0,
        )
    ],
    # §7.1's reality: both generations co-exist on one path, which is why
    # the paper combines strategies.  Old device first by hop order is
    # irrelevant; evolved first so it seeds the cluster NB3 coin.
    "mixed": lambda: [
        evolved_config(
            resync_on_rst_probability=1.0,
            resync_on_rst_handshake_probability=1.0,
        ),
        old_config(reset_type=1),
    ],
}

#: Variant names in canonical matrix order.
MODEL_VARIANTS: List[str] = list(MODEL_VARIANT_FACTORIES)


def model_variant_configs(variant: str) -> List[GFWConfig]:
    """Fresh device configs for a named installation variant.

    A new list of new configs per call — conformance cells mutate
    ``miss_probability`` and ``rules`` per scenario, so sharing instances
    across cells would leak state between matrix cells.
    """
    try:
        factory = MODEL_VARIANT_FACTORIES[variant]
    except KeyError:
        raise KeyError(
            f"unknown GFW model variant {variant!r}; "
            f"known: {sorted(MODEL_VARIANT_FACTORIES)}"
        ) from None
    return factory()
