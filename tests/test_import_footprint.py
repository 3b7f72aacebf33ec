"""Each process loads only the code it runs (DESIGN.md §6, the import rule).

Every check starts a fresh interpreter on ``src`` and reads its
``sys.modules``: a top-level import that drags the process pool, a
per-workload app or the artifact producers into a process that never
runs them fails here, as does a lazy export that names a missing
module or attribute.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

POOL = ("multiprocessing", "concurrent.futures")


def _loaded(code: str, *names: str) -> list:
    """Run ``code`` in a fresh serial interpreter; return which of
    ``names`` it left in ``sys.modules``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _loaded(
        "import repro.experiments",
        *POOL, "repro.experiments.runner", "repro.experiments.fleet",
    ) == []


def test_serial_http_cell_loads_no_pool_or_other_workload():
    code = (
        "from repro.experiments import CHINA_VANTAGE_POINTS, "
        "outside_china_catalog, run_strategy_cell\n"
        "run_strategy_cell('none', CHINA_VANTAGE_POINTS[:1], "
        "outside_china_catalog(count=2), seed=1)"
    )
    assert _loaded(
        code, *POOL, "repro.apps.dns", "repro.apps.tor", "repro.apps.vpn",
        "repro.core.dns_forwarder", "repro.experiments.fleet",
    ) == []


def test_repro_list_loads_no_simulator_or_producer():
    code = "from repro.cli import main\nmain(['list'])"
    assert _loaded(
        code, "repro.netsim.network", "repro.gfw.device",
        "repro.experiments.runner", "repro.analysis.ignore_paths",
    ) == []


def test_two_worker_map_builds_its_pool_and_matches_serial():
    code = (
        "import sys\n"
        "from repro.experiments.parallel import map_trials, shutdown_pool\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "tasks = [(2, n) for n in range(8)]\n"
        "assert map_trials(pow, tasks, workers=2) == map_trials(pow, tasks, workers=1)\n"
        "shutdown_pool()"
    )
    # The fan-out is generic: it loads no GFW model and no packet code.
    models = ("repro.gfw.heterogeneity", "repro.netstack.packet")
    assert _loaded(code, *POOL, *models) == list(POOL)


def test_every_exported_name_resolves():
    packages = sorted(
        info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    )
    assert sorted(repro.__all__) == packages
    for name in packages:
        package = importlib.import_module(f"repro.{name}")
        for export in getattr(package, "__all__", ()):
            assert getattr(package, export) is not None, f"repro.{name}.{export}"
