"""repro — a full reproduction of "Your State is Not Mine" (IMC '17).

Wang, Cao, Qian, Song & Krishnamurthy's paper measures TCP-level evasion
of the Great Firewall of China, infers an evolved GFW model, derives new
insertion packets via ignore-path analysis, proposes new evasion
strategies, and ships INTANG, a measurement-driven evasion tool.

This library rebuilds the entire stack on a deterministic discrete-event
simulator:

- :mod:`repro.netstack` — packets, checksums, TCP options, fragmentation;
- :mod:`repro.netsim`   — event clock, hop-by-hop paths, taps, middleboxes;
- :mod:`repro.tcp`      — endpoint TCP stacks with per-kernel behaviour;
- :mod:`repro.middlebox`— the Table 2 provider middlebox profiles;
- :mod:`repro.gfw`      — old and evolved GFW models, resets, DNS
  poisoning, Tor active probing;
- :mod:`repro.apps`     — HTTP, DNS, Tor, and OpenVPN workloads;
- :mod:`repro.strategies` — every evasion strategy of Tables 1 and 4;
- :mod:`repro.core`     — INTANG: interception, selection, caching, the
  DNS forwarder;
- :mod:`repro.analysis` — the §5.3 ignore-path analysis (Table 3/5);
- :mod:`repro.experiments` — vantage points, catalogs, and the trial
  runner that regenerates every table in the paper;
- :mod:`repro.conformance` — the differential strategy × GFW-variant ×
  middlebox-profile verdict matrix and its golden snapshot;
- :mod:`repro.telemetry` — the metrics registry, the observability
  recorder (spans, event ring, anomaly dumps), and per-trial diagnosis
  shared by all of the above.

Quickstart::

    from repro.experiments import (CHINA_VANTAGE_POINTS,
                                   outside_china_catalog, run_http_trial)
    vantage = CHINA_VANTAGE_POINTS[0]
    website = outside_china_catalog()[0]
    record = run_http_trial(vantage, website, "tcb-teardown+tcb-reversal")
    print(record.outcome)
"""

__version__ = "1.0.0"

__all__ = [
    "netstack",
    "netsim",
    "tcp",
    "middlebox",
    "gfw",
    "apps",
    "strategies",
    "core",
    "analysis",
    "experiments",
    "conformance",
    "telemetry",
]
