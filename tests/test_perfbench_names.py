"""The benchmark harness in ``perfbench/`` still resolves against the program.

``perfbench/`` is frozen: it names program functions by string
(``layertrace.BOUNDARIES``) and imports a few more directly
(``run.tier_state``, the traced run's ``scenario_pool_size``).  A change
that drops one of those names would otherwise surface only as a
``KeyError`` or ``ImportError`` in a ``--trace 1`` benchmark run.  These
tests load the harness files as they are, without changing them.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
run = _load("run")


@pytest.mark.parametrize(
    "target", [target for _layer, target, _role in layertrace.BOUNDARIES]
)
def test_every_boundary_resolves(target):
    _owner, _attr, function = layertrace.resolve(target)
    assert callable(function)


def test_tier_state_reads_every_tier():
    state = run.tier_state()
    assert state["result_cache"] is False
    assert state["replay"] is False
    assert state["batch_trials"] == 1
    assert state["workers"] >= 1


def test_traced_run_imports_resolve():
    from repro.experiments.scenarios import scenario_pool_size

    assert scenario_pool_size() == 0
