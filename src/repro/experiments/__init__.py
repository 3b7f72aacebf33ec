"""Experiment harness: vantage points, catalogs, trials, and tables.

This package turns the substrate (netsim + tcp + gfw + middlebox +
strategies + INTANG) into the paper's measurement campaign:

- :mod:`repro.experiments.calibration` — the environmental frequencies
  from which table-shaped rates emerge;
- :mod:`repro.experiments.vantage` — the 11 in-China and 4 outside-China
  measurement clients (§3.3, §7);
- :mod:`repro.experiments.websites` — synthetic Alexa-style catalogs and
  DNS resolvers;
- :mod:`repro.experiments.scenarios` — per-trial topology assembly;
- :mod:`repro.experiments.outcomes` — the Success/Failure-1/Failure-2
  classification of §3.3 and its one tally, ``VerdictDistribution``;
- :mod:`repro.experiments.runner` — trial execution;
- :mod:`repro.experiments.middlebox_probe` — the Table 2 probes;
- :mod:`repro.experiments.tables` — paper-shaped table rendering;
- :mod:`repro.experiments.artifacts` — one producer per paper table,
  behind ``repro tableN`` and the table benches.
"""

from repro.experiments.calibration import CLEAN_ROOM, Calibration, DEFAULT_CALIBRATION
from repro.experiments.vantage import (
    ALL_VANTAGE_POINTS,
    CHINA_VANTAGE_POINTS,
    OUTSIDE_VANTAGE_POINTS,
    VantagePoint,
    vantage_by_name,
)
from repro.experiments.websites import (
    DYN_RESOLVERS,
    OPENDNS_RESOLVERS,
    Resolver,
    Website,
    inside_china_catalog,
    outside_china_catalog,
)
from repro.experiments.scenarios import Scenario, build_scenario
from repro.experiments.parallel import (
    configured_workers,
    map_trials,
)
from repro.experiments.outcomes import Outcome, VerdictDistribution
from repro.experiments.runner import (
    PerVantageRates,
    TrialRecord,
    diagnose_failure,
    run_cell_by_provider,
    run_dns_trial,
    run_http_outcomes,
    run_http_trial,
    run_per_vantage_clusters,
    run_strategy_cell,
    run_strategy_clusters,
    run_tor_trial,
    run_vpn_trial,
    strategy_salt,
    trial_seed,
)
from repro.experiments.fleet import (
    DEFAULT_FLEET_STRATEGIES,
    FleetResult,
    FleetSpec,
    FlowSpec,
    effectiveness_curve,
    flow_spec,
    run_fleet,
    run_fleet_group,
)

__all__ = [
    "CLEAN_ROOM",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "ALL_VANTAGE_POINTS",
    "CHINA_VANTAGE_POINTS",
    "OUTSIDE_VANTAGE_POINTS",
    "VantagePoint",
    "vantage_by_name",
    "DYN_RESOLVERS",
    "OPENDNS_RESOLVERS",
    "Resolver",
    "Website",
    "inside_china_catalog",
    "outside_china_catalog",
    "Scenario",
    "build_scenario",
    "configured_workers",
    "map_trials",
    "Outcome",
    "PerVantageRates",
    "VerdictDistribution",
    "TrialRecord",
    "diagnose_failure",
    "run_cell_by_provider",
    "run_dns_trial",
    "run_http_outcomes",
    "run_http_trial",
    "run_per_vantage_clusters",
    "run_strategy_cell",
    "run_strategy_clusters",
    "run_tor_trial",
    "run_vpn_trial",
    "strategy_salt",
    "trial_seed",
    "DEFAULT_FLEET_STRATEGIES",
    "FleetResult",
    "FleetSpec",
    "FlowSpec",
    "effectiveness_curve",
    "flow_spec",
    "run_fleet",
    "run_fleet_group",
]
