"""Executable models of the Great Firewall.

The paper infers two generations of GFW behaviour and this package
implements both as configuration presets over one device implementation:

- :data:`~repro.gfw.models.OLD_GFW` — the Khattak-era model (§3.2 "prior
  assumptions"): TCB created only on SYN, torn down by RST/RST-ACK/FIN,
  out-of-order TCP segments resolved last-wins;
- :data:`~repro.gfw.models.EVOLVED_GFW` — the model inferred in §4: TCBs
  also created on SYN/ACK (NB1), a re-synchronization state entered on
  ambiguous handshakes (NB2), RSTs that sometimes resync instead of
  tearing down (NB3), and no FIN teardown.

A :class:`~repro.gfw.device.GFWDevice` is an on-path tap (it can observe
and inject, never drop).  Devices come in the two reset "types" of §2.1:
type-1 injects a single RST with random TTL/window; type-2 injects three
RST/ACKs at X, X+1460, X+4380, enforces the 90-second blacklist, and
forges SYN/ACKs during it.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".rules": ("Detection", "RuleSet", "DEFAULT_KEYWORDS"),
    ".dpi": ("StreamInspector",),
    ".flow": ("GFWFlow", "GFWFlowState"),
    ".resets": ("ResetInjector",),
    ".blacklist": ("Blacklist",),
    ".models": (
        "GFWConfig", "MODEL_VARIANTS", "OLD_GFW", "EVOLVED_GFW",
        "evolved_config", "model_variant_configs", "old_config",
    ),
    ".cluster": ("GFWCluster",),
    ".device": ("GFWDevice",),
    ".dns_poisoner": ("DNSPoisoner",),
    ".active_prober": ("ActiveProber",),
})
