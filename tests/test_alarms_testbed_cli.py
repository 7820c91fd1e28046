"""Alarm log, testbed assembly, reporting helpers, and the CLI."""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import pytest

from repro.alarms import AlarmLog
from repro.analysis.reporting import TextTable, fmt_bool, fmt_seconds, fmt_window, mean, median
from repro.cli import build_parser, main
from repro.experiments.registry import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    register,
    unregister,
)
from repro.parallel import Shard
from repro.simnet.scheduler import Simulator
from repro.testbed import SmartHomeTestbed


class TestAlarmLog:
    def _log(self):
        sim = Simulator(seed=1)
        return sim, AlarmLog(sim)

    def test_silent_initially(self):
        _, log = self._log()
        assert log.silent and log.count() == 0

    def test_raise_records_time_and_detail(self):
        sim, log = self._log()
        sim.run_until(5.0)
        alarm = log.raise_alarm("device-offline", "cloud", "hub gone")
        assert alarm.ts == 5.0
        assert not log.silent

    def test_filters(self):
        sim, log = self._log()
        log.raise_alarm("a", "s1")
        sim.run_until(10.0)
        log.raise_alarm("b", "s2")
        assert len(log.of_kind("a")) == 1
        assert len(log.from_source("s2")) == 1
        assert len(log.since(5.0)) == 1
        assert log.kinds() == {"a", "b"}

    def test_summary(self):
        _, log = self._log()
        log.raise_alarm("a", "s")
        log.raise_alarm("a", "s")
        log.raise_alarm("b", "s")
        assert log.summary() == {"a": 2, "b": 1}
        assert log.extend_summary(["c"]) == {"a": 2, "b": 1, "c": 0}

    def test_count_by_kind(self):
        _, log = self._log()
        log.raise_alarm("a", "s")
        assert log.count("a") == 1 and log.count("b") == 0


class TestReporting:
    def test_fmt_seconds(self):
        assert fmt_seconds(None) == "∞"
        assert fmt_seconds(math.inf) == "∞"
        assert fmt_seconds(1.25, 1) == "1.2s"

    def test_fmt_window(self):
        assert fmt_window(None) == "-"
        assert fmt_window((16.0, 47.0)) == "[16s, 47s]"
        assert fmt_window((21.0, 21.0)) == "21s"
        assert fmt_window((10.0, math.inf)) == "∞"

    def test_fmt_bool(self):
        assert fmt_bool(True) == "yes" and fmt_bool(False) == "no" and fmt_bool(None) == "-"

    def test_table_renders_aligned(self):
        table = TextTable(["A", "Long header"], title="T")
        table.add_row("x", 1)
        out = table.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # header/sep/rows aligned

    def test_table_row_arity_checked(self):
        table = TextTable(["A", "B"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_median_mean(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            median([])


class TestTestbed:
    def test_add_device_idempotent(self):
        tb = SmartHomeTestbed(seed=1)
        a = tb.add_device("C2")
        b = tb.add_device("C2")
        assert a is b

    def test_hub_pulled_in_automatically(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C1")
        assert "hs1" in tb.devices
        assert "ring" in tb.endpoints

    def test_unique_lan_ips(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C5")
        tb.add_device("P2")
        tb.add_device("M7")
        ips = [d.host.ip for d in tb.devices.values()]
        assert len(ips) == len(set(ips))

    def test_local_and_cloud_variants_coexist(self):
        tb = SmartHomeTestbed(seed=1)
        cloud = tb.add_device("L2")
        local = tb.add_device("L2", table=2)
        assert cloud is not local
        assert "l2" in tb.devices and "l2-hk" in tb.devices

    def test_endpoint_created_on_demand_and_cached(self):
        tb = SmartHomeTestbed(seed=1)
        e1 = tb.endpoint("ring")
        e2 = tb.endpoint("ring")
        assert e1 is e2

    def test_summary_shape(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C5")
        tb.settle(3.0)
        summary = tb.summary()
        assert summary["devices"] == ["c5"]
        assert "tuya" in summary["endpoints"]

    def test_attacker_host_is_promiscuous(self):
        tb = SmartHomeTestbed(seed=1)
        host = tb.add_attacker_host()
        assert host.nic.promiscuous

    def test_long_stability_no_alarms(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C2")
        tb.add_device("L2")
        tb.add_device("HS1")
        tb.add_device("M9", table=2)
        tb.settle(8.0)
        tb.run(2000.0)
        assert tb.alarms.silent


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        args = parser.parse_args(["catalogue"])
        assert args.command == "catalogue"

    def test_catalogue_command(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "50 devices" in out
        assert "SmartThings Hub v3" in out

    def test_table1_single_label(self, capsys):
        assert main(["--labels", "HS3", "--trials", "1", "table1"]) == 0
        out = capsys.readouterr().out
        assert "SimpliSafe Keypad" in out and "20s" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_every_registered_experiment_is_a_subcommand(self):
        # A name registered after import must show up too: the subcommands
        # are generated from the registry, not listed by hand.
        register(ExperimentSpec(
            name="toy-parser", run=_toy_driver, render=str,
            status=lambda rows: 0, description="toy for the parser test",
        ))
        try:
            parser = build_parser()
            [sub] = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
            helps = {a.dest: a.help for a in sub._choices_actions}
            assert "toy-parser" in experiment_names()
            for name in experiment_names():
                assert helps.get(name) == get_experiment(name).description, name
                assert parser.parse_args([name]).experiment == name
        finally:
            unregister("toy-parser")

    def test_all_keeps_per_campaign_manifests_under_manifest_option(
            self, tmp_path, monkeypatch, capsys):
        # ``--manifest PATH all`` used to point every single-campaign step
        # at PATH, so each manifest overwrote the one before it.
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        names = ("table1", "table2", "table3", "figure3", "verify",
                 "findings", "countermeasures", "integrity")
        originals = [get_experiment(name) for name in names]
        for spec in originals:
            register(ExperimentSpec(
                name=spec.name, run=_toy_driver, render=str,
                status=lambda rows: 0, description=spec.description,
            ), replace=True)
        try:
            override = tmp_path / "one.jsonl"
            assert main(["--jobs", "1", "--no-cache", "--manifest",
                         str(override), "all"]) == 0
        finally:
            for spec in originals:
                register(spec, replace=True)
        printed = [line.removeprefix("manifest: ")
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("manifest: ")]
        expected = [str(tmp_path / "manifests" / f"{name}.jsonl")
                    for name in names]
        assert printed[:len(names)] == expected
        assert len(set(printed)) == len(printed)
        assert all(Path(path).is_file() for path in printed)
        assert not override.exists()


    def test_countermeasures_is_one_cached_campaign(
            self, tmp_path, monkeypatch, capsys):
        # The three Section VII sweeps share one runner: one manifest for
        # all 13 shards, and a rerun is served entirely from the cache.
        from repro.obs.manifest import RunManifest

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        expected = [f"manifest: {tmp_path / 'manifests' / 'countermeasures.jsonl'}"]
        for cached in (False, True):
            assert main(["--jobs", "1", "countermeasures"]) == 0
            printed = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("manifest: ")]
            assert printed == expected
            rows = RunManifest.load(printed[0].removeprefix("manifest: ")).shards
            assert len(rows) == 13
            assert all(row.cached == cached for row in rows)

def _toy_shard(value: int, seed: int) -> int:
    return value + seed


def _toy_driver(seed: int = 0, runner=None):
    """Stands in for a registered driver: one cheap shard on ``runner``."""
    return runner.run([Shard(key="toy/0", fn=_toy_shard, kwargs={"value": 1})])
