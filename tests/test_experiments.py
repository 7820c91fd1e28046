"""Experiment-driver structure tests: rows, renderers, and criteria.

Most tests exercise the drivers on small subsets so regressions in row
structure, matching criteria, or renderers surface in the unit suite;
``TestPaperHeadlines`` checks each full campaign's headline claim at a
reduced trial count.
"""

from __future__ import annotations


import pytest

from repro.experiments.table1 import profile_label, render_table1, run_table1
from repro.experiments.table2 import profile_local_label, render_table2, run_table2
from repro.experiments.table3 import CaseRow, render_table3, run_figure3, run_table3
from repro.experiments.verification import (
    render_verification,
    run_verification,
    verify_device,
)
from repro.core.attacks.scenarios import Case1FrontDoorVoiceAlert, Case8StormDoorUnlock


class TestTable1Driver:
    def test_row_structure(self):
        row = profile_label("HS1", trials=1)
        assert row.profile.label == "HS1"
        assert row.expected_event_window == (30.0, 60.0)
        assert row.measured_event_window[1] == pytest.approx(60.0, abs=3.0)
        assert row.matches_expectation()

    def test_run_table1_subset(self):
        rows = run_table1(labels=["HS3", "M7"], trials=1)
        assert [r.profile.label for r in rows] == ["HS3", "M7"]

    def test_render_contains_anchors(self):
        rows = run_table1(labels=["HS3"], trials=1)
        text = render_table1(rows)
        assert "SimpliSafe Keypad" in text and "Matches" in text

    def test_matches_expectation_rejects_divergence(self):
        row = profile_label("HS1", trials=1)
        # Tamper with the report to simulate a wrong measurement.
        row.report.ka_timeout = 5.0
        assert not row.matches_expectation()


class TestTable2Driver:
    def test_local_row_unbounded(self):
        row = profile_local_label("S2", trials=1)
        assert row.event_unbounded
        assert row.report.event_size == 275
        assert row.matches_expectation

    def test_render(self):
        row = profile_local_label("S2", trials=1)
        assert "HomePod" in render_table2([row])


class TestTable3Driver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table3(
            seed=5, scenarios=[Case1FrontDoorVoiceAlert(), Case8StormDoorUnlock()]
        )

    def test_rows_reproduce(self, rows):
        assert all(r.consequence_reproduced for r in rows)
        assert all(r.stealthy for r in rows)

    def test_render(self, rows):
        text = render_table3(rows)
        assert "Case 1" in text and "Case 8" in text and "Stealthy" in text

    def test_consequence_criterion_strict(self, rows):
        row = rows[0]
        broken = CaseRow(
            scenario=row.scenario, baseline=row.baseline, attacked=row.baseline
        )
        assert not broken.consequence_reproduced  # no delta -> not reproduced


class TestVerificationDriver:
    def test_single_device(self):
        row = verify_device("C2", trials=2, seed=141)
        assert row.success_rate == 1.0
        assert all(t.achieved_delay > 10.0 for t in row.trials)

    def test_render(self):
        row = verify_device("C2", trials=1, seed=143)
        text = render_verification([row])
        assert "100%" in text


class TestPaperHeadlines:
    def test_table1_every_row_matches_and_events_outlast_30s(self):
        rows = run_table1(trials=1, manifest=False)
        assert len(rows) == 36
        assert [r.profile.label for r in rows if not r.matches_expectation()] == []
        # Every event is delayable past 30 s except the SimpliSafe keypad's.
        for row in rows:
            assert (row.measured_event_window[1] < 30.0) == (row.profile.label == "HS3")

    def test_table2_every_local_event_is_unbounded(self):
        rows = run_table2(trials=1, manifest=False)
        assert len(rows) == 14
        assert [r.profile.label for r in rows if not r.event_unbounded] == []

    def test_table3_all_eleven_cases_reproduce_stealthily(self):
        rows = run_table3(seed=3, manifest=False)
        assert len(rows) == 11
        assert all(r.consequence_reproduced and r.stealthy for r in rows)

    def test_figure3_attacks(self):
        rows = run_figure3(seed=3, manifest=False)
        assert len(rows) == 4
        assert all(r.consequence_reproduced and r.stealthy for r in rows)
        by_case = {r.scenario.case_id: r.attacked.metrics for r in rows}
        # 3(a): the smoke alert arrives dozens of seconds late but arrives.
        assert by_case["Fig 3a"]["alert_delivered"]
        assert by_case["Fig 3a"]["alert_latency"] > 20.0
        # 3(b): trigger and command delays combine.
        assert by_case["Fig 3b"]["combined_window"] > 15.0

    def test_verification_avoids_every_timeout(self):
        for row in run_verification(trials=10, manifest=False):
            assert row.avoidance_rate == 1.0, (row.label, row.trials)
            assert row.success_rate == 1.0, (row.label, row.trials)
