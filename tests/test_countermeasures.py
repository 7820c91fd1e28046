"""Section VII countermeasure tests: what they stop, what they cost."""

from __future__ import annotations


import pytest

from repro.countermeasures.ack_timeout import (
    harden_profile,
    keepalive_traffic_rate,
    residual_event_window,
    sweep_ack_timeout,
    sweep_keepalive_period,
)
from repro.countermeasures.timestamp_check import DelayAnomalyDetector
from repro.devices.profiles import CATALOGUE


class TestHardening:
    def test_harden_sets_event_ack_timeout(self):
        profile = CATALOGUE.get("HS1")
        hardened = harden_profile(profile, event_ack_timeout=5.0)
        assert hardened.event_ack_timeout == 5.0
        assert hardened.event_acked

    def test_original_profile_untouched(self):
        profile = CATALOGUE.get("HS1")
        harden_profile(profile, event_ack_timeout=5.0)
        assert profile.event_ack_timeout is None

    def test_residual_window_shrinks_monotonically(self):
        profile = CATALOGUE.get("HS1")
        windows = [residual_event_window(profile, t)[1] for t in (30.0, 20.0, 10.0, 5.0)]
        assert windows == sorted(windows, reverse=True)

    def test_sweep_ack_timeout(self):
        rows = sweep_ack_timeout(CATALOGUE.get("HS1"), [30.0, 5.0])
        assert rows[0][1][1] == 30.0 and rows[1][1][1] == 5.0

    def test_harden_keepalive_period(self):
        hardened = harden_profile(CATALOGUE.get("HS1"), ka_period=5.0)
        assert hardened.event_delay_window()[1] == 35.0  # 5 + grace 30


class TestTrafficModel:
    def test_rate_inverse_in_period(self):
        profile = CATALOGUE.get("HS1")
        slow = keepalive_traffic_rate(profile, 60.0)
        fast = keepalive_traffic_rate(profile, 2.0)
        assert fast == pytest.approx(slow * 30.0)

    def test_zero_for_on_demand(self):
        assert keepalive_traffic_rate(CATALOGUE.get("M7")) == 0.0

    def test_sweep_rows_shape(self):
        rows = sweep_keepalive_period(CATALOGUE.get("HS1"), [60.0, 2.0])
        assert len(rows) == 2
        period, window, rate = rows[1]
        assert period == 2.0 and rate > 0 and window[1] == 32.0

    def test_sub_2s_keepalive_is_expensive(self):
        # The LIFX cautionary tale: sub-2 s keep-alives cost two orders of
        # magnitude more idle traffic than a 120 s interval.
        profile = CATALOGUE.get("HS1")
        assert keepalive_traffic_rate(profile, 2.0) > 50 * keepalive_traffic_rate(profile, 120.0)


class TestExperimentRows:
    def test_ack_sweep_measured_matches_prediction(self):
        from repro.experiments.countermeasures import run_ack_timeout_sweep

        rows = run_ack_timeout_sweep(timeouts=(None, 10.0), seed=91)
        baseline, hardened = rows
        assert baseline.achieved_delay > hardened.achieved_delay
        assert hardened.achieved_delay == pytest.approx(8.0, abs=0.5)  # 10 - margin
        assert hardened.stealthy

    def test_ack_sweep_window_shrinks_monotonically_and_stays_stealthy(self):
        from repro.experiments.countermeasures import run_ack_timeout_sweep

        rows = run_ack_timeout_sweep()
        achieved = [row.achieved_delay for row in rows]
        assert achieved == sorted(achieved, reverse=True)
        assert all(row.stealthy for row in rows)

    def test_keepalive_cost_curve(self):
        from repro.experiments.countermeasures import run_keepalive_cost_curve

        rows = run_keepalive_cost_curve()
        # Traffic grows as the keep-alive period shrinks ...
        rates = [row.analytic_bytes_per_hour for row in rows]
        assert rates == sorted(rates)
        # ... the simulated LAN agrees with the analytic rate ...
        measured = [r for r in rows if r.measured_bytes_per_hour is not None]
        assert len(measured) == 2
        for row in measured:
            assert row.measured_bytes_per_hour == pytest.approx(
                row.analytic_bytes_per_hour, rel=0.25
            )
        # ... and sub-2 s keep-alives drain a sensor battery within a month.
        assert any(r.battery_days is not None and r.battery_days < 31 for r in rows)

    def test_timestamp_defense_asymmetry(self):
        from repro.experiments.countermeasures import run_timestamp_defense

        rows = run_timestamp_defense(seed=93)
        by_key = {(r.attack, r.window): r.attack_succeeded for r in rows}
        # Delayed trigger: stopped by the defence.
        assert by_key[("spurious via delayed trigger", None)]
        assert not by_key[("spurious via delayed trigger", 10.0)]
        # Delayed condition: not stopped.
        assert by_key[("spurious via delayed condition (Case 8)", 10.0)]
        # Pure delay: not stopped.
        assert by_key[("state-update delay (Case 1)", 10.0)]

    def test_detection_monitor_fires(self):
        from repro.experiments.countermeasures import run_delay_detection

        result = run_delay_detection(threshold=10.0, seed=95)
        assert result.detected
        assert result.detections >= 1


class TestDetector:
    def test_fresh_events_not_flagged(self):
        from repro.testbed import SmartHomeTestbed

        tb = SmartHomeTestbed(seed=97)
        base = tb.add_device("HS1")
        detector = DelayAnomalyDetector(sim=tb.sim, alarm_log=tb.alarms, threshold=10.0)
        detector.attach(tb.endpoints["ring"])
        tb.settle(5.0)
        base.stimulate("armed-away")
        tb.run(5.0)
        assert detector.detections == []
        assert tb.alarms.silent
