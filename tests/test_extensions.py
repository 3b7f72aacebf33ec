"""Tests for the extension features: the West Chamber baseline, the GFW
responsiveness probe, INTANG state persistence, and the CLI."""

import random

import pytest

from repro.core.intang import INTANG
from repro.core.responsiveness import ResponsivenessProbe
from repro.gfw import evolved_config, old_config

from repro.experiments.lab import SERVER_IP, fetch, lab_trial, mini_topology
from helpers import detections


class TestWestChamberBaseline:
    def _run(self, model, seed=3):
        config = evolved_config() if model == "evolved" else old_config()
        return lab_trial("west-chamber", seed, seed, gfw_config=config)

    def test_worked_against_the_2010_era_gfw(self):
        world, exchange = self._run("old")
        assert detections(world) == 0
        assert exchange.got_response

    def test_now_ineffective_as_the_paper_found(self):
        """§1: "none of the strategies were found to be effective"."""
        caught = 0
        for seed in range(4):
            config = evolved_config()
            # Across installations the NB3 coin varies; West Chamber dies
            # either way once the FIN is ignored and the RST resyncs.
            config.resync_on_rst_probability = 1.0
            config.resync_on_rst_handshake_probability = 1.0
            world, _ = lab_trial("west-chamber", seed, seed, gfw_config=config)
            if detections(world):
                caught += 1
        assert caught == 4

    def test_benign_traffic_unharmed(self):
        world = mini_topology(seed=3)
        INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, fixed_strategy="west-chamber",
            rng=random.Random(1),
        )
        exchange = fetch(world, path="/benign")
        assert exchange.got_response

    def test_registered(self):
        from repro.strategies.registry import STRATEGY_REGISTRY

        assert "west-chamber" in STRATEGY_REGISTRY


class TestResponsivenessProbe:
    def _probe(self, config=None, with_gfw=True, seed=40):
        world = mini_topology(gfw_config=config, with_gfw=with_gfw, seed=seed)
        probe = ResponsivenessProbe(
            world.client, world.client_tcp, world.clock,
            rng=random.Random(1),
        )
        return world, probe.probe(SERVER_IP)

    def test_uncensored_path(self):
        _, report = self._probe(with_gfw=False)
        assert not report.censored
        assert "uncensored" in report.summary()

    def test_censored_path_classified(self):
        _, report = self._probe(config=evolved_config())
        assert report.censored
        assert report.reset_types == ["type2"]
        assert report.blacklist_active

    def test_type1_signature_and_no_blacklist(self):
        _, report = self._probe(config=evolved_config(reset_type=1))
        assert report.reset_types == ["type1"]
        assert not report.blacklist_active

    def test_model_discrimination(self):
        _, evolved_report = self._probe(config=evolved_config())
        assert evolved_report.evolved_model is True
        _, old_report = self._probe(config=old_config(reset_type=2))
        assert old_report.evolved_model is False

    def test_summary_mentions_model(self):
        _, report = self._probe(config=evolved_config())
        assert "evolved model" in report.summary()


class TestStatePersistence:
    def test_measurement_history_survives_restart(self):
        world = mini_topology(seed=41)
        first = INTANG(
            host=world.client, tcp_host=world.client_tcp, clock=world.clock,
            network=world.network, rng=random.Random(1),
        )
        exchange = fetch(world)
        first.report_result(SERVER_IP, exchange.got_response)
        pinned_before = first.selector.record_for(SERVER_IP).pinned
        blob = first.save_state()

        world2 = mini_topology(seed=42)
        second = INTANG(
            host=world2.client, tcp_host=world2.client_tcp,
            clock=world2.clock, network=world2.network,
            rng=random.Random(2),
        )
        # A read before the restore caches the fresh instance's empty
        # record; the restore must replace it.
        assert second.selector.record_for(SERVER_IP).pinned is None
        second.load_state(blob)
        assert second.selector.record_for(SERVER_IP).pinned == pinned_before
        assert second.selector.choose(SERVER_IP) == pinned_before


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tcb-teardown+tcb-reversal" in out
        assert "west-chamber" in out

    def test_table3(self, capsys):
        from repro.cli import main

        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Has unsolicited MD5 Optional Header" in out

    def test_table5(self, capsys):
        from repro.cli import main

        assert main(["table5"]) == 0
        assert "Packet type" in capsys.readouterr().out

    def test_trial_success_exit_code(self, capsys):
        from repro.cli import main

        assert main(["trial", "--strategy", "tcb-teardown+tcb-reversal"]) == 0
        assert main(["trial", "--strategy", "none"]) == 1

    def test_probe_command(self, capsys):
        from repro.cli import main

        assert main(["probe", "--model", "old"]) == 0
        assert "old model" in capsys.readouterr().out

    def test_probe_clean(self, capsys):
        from repro.cli import main

        assert main(["probe", "--clean"]) == 0
        assert "uncensored" in capsys.readouterr().out

    def test_ladder(self, capsys):
        from repro.cli import main

        assert main(["ladder", "--figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "evaded" in out
        assert "[SA]" in out

    def test_matrix(self, capsys):
        from repro.cli import main

        assert main(["matrix"]) == 0
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
        ]
        assert ["west-chamber", "EVADES", "caught"] in rows
        assert ["tcb-teardown+tcb-reversal", "EVADES", "EVADES"] in rows

    def test_lab_commands_need_only_the_package(self, tmp_path):
        """matrix, probe and ladder run from a copy of ``src/`` alone, as
        from an installed package: no repository checkout behind them."""
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv in (["matrix"], ["probe", "--clean"], ["ladder", "--figure", "3"]):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=tmp_path, env=env,
                capture_output=True, text=True,
            )
            assert done.returncode == 0, (argv, done.stderr)

    def test_unknown_command_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
