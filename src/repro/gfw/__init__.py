"""Executable models of the Great Firewall.

The paper infers two generations of GFW behaviour and this package
implements both as configuration presets over one device implementation:

- :func:`~repro.gfw.models.old_config` — the Khattak-era model (§3.2
  "prior assumptions"): TCB created only on SYN, torn down by
  RST/RST-ACK/FIN, out-of-order TCP segments resolved last-wins;
- :func:`~repro.gfw.models.evolved_config` — the model inferred in §4:
  TCBs also created on SYN/ACK (NB1), a re-synchronization state entered
  on ambiguous handshakes (NB2), RSTs that sometimes resync instead of
  tearing down (NB3), and no FIN teardown.

The installation a trial's path meets is one frozen
:class:`~repro.gfw.models.Installation`; its device configs are built by
:func:`~repro.gfw.models.installation_configs` and never changed.

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
        "GFWConfig", "Installation", "MODEL_VARIANTS", "evolved_config",
        "installation_configs", "model_variant_configs", "old_config",
    ),
    ".cluster": ("GFWCluster",),
    ".device": ("GFWDevice",),
    ".dns_poisoner": ("DNSPoisoner",),
    ".active_prober": ("ActiveProber",),
})
