"""The shared ``REPRO_*`` environment-knob parser (repro.core.env)."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.core.env import EnvKnobError, env_flag, env_int


class TestEnvFlag:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        assert env_flag("REPRO_TEST_FLAG", default=False) is False

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "   ")
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", "Yes", "on", " ON "])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=False) is True

    @pytest.mark.parametrize("raw", ["0", "false", "No", "OFF", " off "])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    @pytest.mark.parametrize("raw", ["2", "yep", "enabled", "tru"])
    def test_garbage_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        with pytest.raises(EnvKnobError, match="REPRO_TEST_FLAG"):
            env_flag("REPRO_TEST_FLAG")

    def test_knob_error_is_a_value_error(self):
        assert issubclass(EnvKnobError, ValueError)


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT", default=3) == 3

    def test_parses_integers(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", " 42 ")
        assert env_int("REPRO_TEST_INT", default=0) == 42
        monkeypatch.setenv("REPRO_TEST_INT", "-1")
        assert env_int("REPRO_TEST_INT", default=0) == -1

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "four")
        with pytest.raises(EnvKnobError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT", default=0)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "1")
        assert env_int("REPRO_TEST_INT", default=0, minimum=1) == 1
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        with pytest.raises(EnvKnobError, match="minimum"):
            env_int("REPRO_TEST_INT", default=0, minimum=1)


class TestKnobRouting:
    """The real knobs go through this parser, so typos fail loudly."""

    def test_workers_routes_through_env_int(self, monkeypatch):
        from repro.experiments.parallel import configured_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert configured_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert configured_workers() == 1  # default serial
        assert configured_workers(2) == 2  # explicit argument wins
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert configured_workers() >= 1  # non-positive -> all cores
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(EnvKnobError, match="REPRO_WORKERS"):
            configured_workers()

    def test_recorder_ignores_the_environment(self, monkeypatch):
        from repro.telemetry import OFF, reset_recorder

        monkeypatch.setenv("REPRO_OBS", "events")
        assert reset_recorder().level == OFF

    def test_workers_is_the_only_runtime_knob(self):
        """Every ``REPRO_*`` name a string constant under ``src/repro``
        spells is a knob the package reads; only one may remain."""
        knob = re.compile(r"REPRO_[A-Z0-9_]+")
        names = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and knob.fullmatch(node.value)
            )
        assert names == {"REPRO_WORKERS"}
