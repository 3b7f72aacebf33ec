"""Configuration presets: the old (Khattak-era) and evolved GFW models.

Every behavioural difference the paper establishes between the model
assumed by prior work and the model it infers in §4 is a field of
:class:`GFWConfig`; :func:`old_config` and :func:`evolved_config` produce
the two presets, and experiments mix device instances of both (§7.1:
strategies are *combined* precisely because both generations co-exist on
real paths).

The installation a trial meets is one frozen :class:`Installation`
value; :func:`installation_configs` is the one place its device configs
are built, and no config is changed after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.netstack.fragment import OverlapPolicy
from repro.gfw.blacklist import DEFAULT_BLACKLIST_DURATION
from repro.gfw.rules import RuleSet

if TYPE_CHECKING:
    from repro.gfw.heterogeneity import TemporalProfile


@dataclass(frozen=True)
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
    validates_ack_number: bool = False
    #: Some evolved device instances ignore flag-less segments; the ~50 %
    #: "no TCP flag" failure rate of Table 1 reflects a device mixture.
    accepts_no_flag_data: bool = True
    requires_ack_flag: bool = False

    # -- reassembly preferences -----------------------------------------------
    #: Out-of-order TCP segment overlap: the old model prefers the latter
    #: (Khattak), most evolved devices the former.
    tcp_ooo_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS

    # -- operational ------------------------------------------------------------
    #: Maximum concurrent TCBs one device tracks; the least recently
    #: touched flow is evicted to admit a new one (§2.1: stateful
    #: tracking is costly, so the real device bounds it too).  The
    #: default comfortably covers every simulated trial — eviction only
    #: matters for the resource-exhaustion ablations.
    max_flows: int = 4096
    blacklist_duration: float = DEFAULT_BLACKLIST_DURATION
    #: Probability that a detected flow draws no enforcement because the
    #: injector is loaded (a heterogeneous route's diurnal profile at the
    #: trial's hour).  ``None`` — every registered variant and every
    #: drawn installation — means no load modulation and, critically, no
    #: extra RNG draw: the historical draw order stays byte-identical.
    reset_suppression: Optional[float] = None
    #: Sequence window tolerated around the expected client seq.
    seq_window: int = 65535


def old_config(reset_type: int = 1, **changes: object) -> GFWConfig:
    """The model prior work assumed (§3.2 'prior assumptions')."""
    fields: Dict[str, object] = {
        "model": "old",
        "reset_type": reset_type,
        "creates_tcb_on_synack": False,
        "fin_tears_down": True,
        "resync_on_rst_probability": 0.0,
        "resync_on_rst_handshake_probability": 0.0,
        "supports_resync": False,
        "tcp_ooo_policy": OverlapPolicy.LAST_WINS,
    }
    fields.update(changes)
    return GFWConfig(**fields)  # type: ignore[arg-type]


def evolved_config(reset_type: int = 2, **changes: object) -> GFWConfig:
    """The model inferred by §4 (new behaviors NB1–NB3)."""
    fields: Dict[str, object] = {"model": "evolved", "reset_type": reset_type}
    fields.update(changes)
    return GFWConfig(**fields)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Named model variants (conformance ablations)
# ---------------------------------------------------------------------------
#: The NB3 coin pinned heads (RST always resyncs), so a variant built on
#: it is deterministic.
_RESYNC_ALWAYS = {
    "resync_on_rst_probability": 1.0,
    "resync_on_rst_handshake_probability": 1.0,
}
_RESYNC_NEVER = {
    "resync_on_rst_probability": 0.0,
    "resync_on_rst_handshake_probability": 0.0,
}

#: Named installation variants for the differential conformance harness:
#: the *exact* device configs of one installation — no population draws —
#: so a conformance cell's verdict is a pure function of (strategy,
#: variant, profile, fault point, seed).  The NB ablations flip one §4
#: finding at a time, which is what makes the matrix differential: a
#: strategy that exploits NB1 must flip its verdict between ``evolved``
#: and ``evolved-nb1-off``.  Configs are frozen, so every scenario
#: shares these instances.
MODEL_VARIANT_CONFIGS: Dict[str, Tuple[GFWConfig, ...]] = {
    # The model prior work assumed (§3.2); Table 1's strategies were
    # designed against exactly this state machine.
    "old": (old_config(reset_type=1),),
    # The §4 evolved model with every new behaviour on.
    "evolved": (evolved_config(**_RESYNC_ALWAYS),),
    # NB1 ablation: no TCB from a bare SYN/ACK (§4 "TCB creation").
    "evolved-nb1-off": (
        evolved_config(creates_tcb_on_synack=False, **_RESYNC_ALWAYS),
    ),
    # NB2 ablation: the RESYNC state does not exist (§4 "resync state").
    "evolved-nb2-off": (
        evolved_config(supports_resync=False, **_RESYNC_NEVER),
    ),
    # NB3 ablation: RST always tears the TCB down, never resyncs.
    "evolved-nb3-off": (evolved_config(**_RESYNC_NEVER),),
    # §7.1's reality: both generations co-exist on one path, which is why
    # the paper combines strategies.  Evolved first so it seeds the
    # cluster NB3 coin.
    "mixed": (evolved_config(**_RESYNC_ALWAYS), old_config(reset_type=1)),
}

#: Variant names in canonical matrix order.
MODEL_VARIANTS: List[str] = list(MODEL_VARIANT_CONFIGS)


def model_variant_configs(variant: str) -> Tuple[GFWConfig, ...]:
    """The shared, frozen device configs of a named installation variant
    (``KeyError`` listing the known names otherwise)."""
    try:
        return MODEL_VARIANT_CONFIGS[variant]
    except KeyError:
        raise KeyError(
            f"unknown GFW model variant {variant!r}; "
            f"known: {sorted(MODEL_VARIANT_CONFIGS)}"
        ) from None


# ---------------------------------------------------------------------------
# The installation a trial meets
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Installation:
    """The GFW installation on one trial's path, as one hashable value:
    a named ``variant`` (its exact configs), or — ``variant is None`` —
    drawn ``generations`` in hop order (``old``/``old2`` are reset type
    1/2, ``evolved``/``evolved2`` type 2/1) whose evolved devices share
    the quirks below.  ``profile`` is a heterogeneous route's diurnal
    load curve."""

    variant: Optional[str] = None
    generations: Tuple[str, ...] = ()
    tcp_ooo_policy: OverlapPolicy = OverlapPolicy.FIRST_WINS
    accepts_no_flag_data: bool = True
    validates_ack_number: bool = False
    fin_tears_down: bool = False
    resync_on_rst_probability: float = 0.20
    resync_on_rst_handshake_probability: float = 0.80
    profile: Optional[TemporalProfile] = None


@lru_cache(maxsize=1024)
def installation_configs(
    installation: Installation, tor_filtered: bool, sim_hour: float
) -> Tuple[GFWConfig, ...]:
    """The device configs of ``installation`` on a path whose devices
    fingerprint Tor iff ``tor_filtered``, at simulated hour ``sim_hour``:
    memoized, so equal arguments share the same frozen configs.  A route
    profile sets ``reset_suppression`` at ``sim_hour`` and scales the
    blacklist window by its ``ttl_factor``."""
    rules = RuleSet(detect_tor=tor_filtered)
    if installation.variant is None:
        evolved = evolved_config(
            rules=rules,
            tcp_ooo_policy=installation.tcp_ooo_policy,
            accepts_no_flag_data=installation.accepts_no_flag_data,
            validates_ack_number=installation.validates_ack_number,
            fin_tears_down=installation.fin_tears_down,
            resync_on_rst_probability=installation.resync_on_rst_probability,
            resync_on_rst_handshake_probability=(
                installation.resync_on_rst_handshake_probability
            ),
        )
        return tuple(
            old_config(reset_type=1 if generation == "old" else 2, rules=rules)
            if generation.startswith("old")
            else replace(evolved, reset_type=2 if generation == "evolved" else 1)
            for generation in installation.generations
        )
    profile = installation.profile
    return tuple(
        replace(config, rules=rules)
        if profile is None
        else replace(
            config,
            rules=rules,
            reset_suppression=profile.reset_suppression(sim_hour),
            blacklist_duration=config.blacklist_duration * profile.ttl_factor,
        )
        for config in model_variant_configs(installation.variant)
    )
