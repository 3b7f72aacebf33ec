"""In-path middleboxes and the provider profiles of Table 2.

Middlebox interference is one of the paper's two root causes for the
failure of classic evasion strategies (§3.4): client-side boxes drop the
very packet anomalies insertion packets rely on (wrong checksums,
missing flags, FINs, RSTs), discard or — worse — transparently
*reassemble* IP fragments, and stateful firewalls adopt insertion
packets into their own connection state, blackholing the real traffic
afterwards.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".boxes": (
        "FieldSanitizerBox", "FragmentHandlingBox", "FragmentMode",
        "StatefulFirewallBox",
    ),
    ".profiles": (
        "MiddleboxProfile", "PROFILE_ALIYUN", "PROFILE_QCLOUD",
        "PROFILE_UNICOM_SJZ", "PROFILE_UNICOM_TJ", "PROFILE_TRANSPARENT",
        "PROVIDER_PROFILES",
    ),
})
