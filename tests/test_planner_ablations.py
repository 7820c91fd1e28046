"""Attack planner and design-ablation experiment tests."""

from __future__ import annotations

import pytest

from repro.automation.dsl import parse_rule
from repro.core.attacks.planner import (
    AttackPlanner,
    SEVERITY_CRITICAL,
    SEVERITY_ELEVATED,
    SEVERITY_LOW,
    render_plan,
)
from repro.devices.profiles import CATALOGUE


@pytest.fixture
def profiles():
    return {
        "c1": CATALOGUE.get("C1"),
        "c2": CATALOGUE.get("C2"),
        "c5": CATALOGUE.get("C5"),
        "m2": CATALOGUE.get("M2"),
        "pr1": CATALOGUE.get("PR1"),
        "lk1": CATALOGUE.get("LK1"),
        "p1": CATALOGUE.get("P1"),
        "sm1": CATALOGUE.get("SM1"),
    }


class TestPlanner:
    def test_notify_rule_yields_type1(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [parse_rule('WHEN sm1 smoke.detected THEN NOTIFY push "fire"', "r")]
        opportunities = planner.analyze(rules)
        assert len(opportunities) == 1
        opp = opportunities[0]
        assert opp.attack_type == "state-update-delay"
        assert opp.delay_target == "sm1"
        assert opp.window == profiles["sm1"].event_delay_window()

    def test_command_rule_yields_both_type2_directions(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "r")]
        opportunities = planner.analyze(rules)
        directions = {(o.attack_type, o.direction) for o in opportunities}
        assert ("action-delay", "event") in directions
        assert ("action-delay", "command") in directions

    def test_conditional_rule_yields_type3_pair(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [
            parse_rule(
                "WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock", "r"
            )
        ]
        types = {o.attack_type for o in planner.analyze(rules)}
        assert "spurious-execution" in types and "disabled-execution" in types

    def test_shared_hub_session_marked_infeasible(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [
            parse_rule(
                "WHEN m2 motion.active IF c2.contact == closed THEN COMMAND p1 on", "r"
            )
        ]
        type3 = [o for o in planner.analyze(rules) if o.attack_type.endswith("execution")]
        assert type3 and all(not o.feasible for o in type3)
        assert all("H1" in o.caveat for o in type3)

    def test_cross_session_condition_feasible(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [
            parse_rule(
                "WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock", "r"
            )
        ]
        type3 = [o for o in planner.analyze(rules) if o.attack_type == "spurious-execution"]
        assert type3 and type3[0].feasible

    def test_same_device_condition_infeasible(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [
            parse_rule(
                "WHEN pr1 presence.away IF pr1.presence == present THEN COMMAND lk1 lock", "r"
            )
        ]
        type3 = [o for o in planner.analyze(rules) if o.attack_type.endswith("execution")]
        assert all(not o.feasible for o in type3)

    def test_severity_ranking(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [
            parse_rule("WHEN c2 contact.closed THEN COMMAND p1 on", "low"),
            parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "crit"),
        ]
        opportunities = planner.analyze(rules)
        assert opportunities[0].severity == SEVERITY_CRITICAL
        severities = [o.severity for o in opportunities]
        assert severities == sorted(
            severities, key=lambda s: {SEVERITY_CRITICAL: 0, SEVERITY_ELEVATED: 1, SEVERITY_LOW: 2}[s]
        )

    def test_unknown_devices_skipped(self):
        planner = AttackPlanner({})
        rules = [parse_rule("WHEN ghost contact.open THEN COMMAND wraith on", "r")]
        assert planner.analyze(rules) == []

    def test_sensor_action_has_no_command_opportunity(self, profiles):
        planner = AttackPlanner(profiles)
        # c1 supports no commands: only the trigger-side opportunity exists.
        rules = [parse_rule("WHEN c2 contact.closed THEN COMMAND c1 on", "r")]
        opportunities = planner.analyze(rules)
        assert all(o.direction == "event" for o in opportunities)

    def test_render_plan(self, profiles):
        planner = AttackPlanner(profiles)
        rules = [parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "r")]
        text = render_plan(planner.analyze(rules))
        assert "Attack plan" in text and "c-Delay" in text


class TestAblationExperiments:
    def test_forged_ack_ablation_contrast(self):
        from repro.experiments.ablations import run_forged_ack_ablation

        rows = run_forged_ack_ablation(seed=171)
        with_forge = next(r for r in rows if r.forge_acks)
        without = next(r for r in rows if not r.forge_acks)
        assert with_forge.retransmissions == 0
        assert without.retransmissions >= 2

    def test_margin_zero_fails_margin_two_succeeds(self):
        from repro.experiments.ablations import run_margin_sweep

        rows = run_margin_sweep(margins=(0.0, 2.0), trials=3, seed=173)
        by_margin = {r.margin: r for r in rows}
        assert by_margin[2.0].timeouts_avoided == 3
        assert by_margin[0.0].timeouts_avoided < 3

    def test_wide_margin_costs_window(self):
        from repro.experiments.ablations import run_margin_sweep

        by_margin = {row.margin: row for row in run_margin_sweep()}
        assert by_margin[10.0].mean_achieved < by_margin[2.0].mean_achieved

    def test_pattern_comparison_spreads(self):
        from repro.experiments.ablations import run_pattern_comparison

        rows = {r.label: r for r in run_pattern_comparison()}
        assert rows["H2"].spread == 120.0  # fixed: full-period phase spread
        assert rows["H1"].spread == 31.0


class TestStaticArpDefense:
    def test_hardening_blocks_hijack(self):
        from repro.experiments.countermeasures import run_static_arp_defense

        rows = run_static_arp_defense(seed=175)
        assert rows[0].attack_succeeded       # default: vulnerable
        assert not rows[1].attack_succeeded   # hardened: hold never triggers
        assert rows[1].event_delay < 1.0      # event arrives on time
