"""Capture export/statistics and the recognition-accuracy experiment."""

from __future__ import annotations

import json

import pytest

from repro.core.attacker import PhantomDelayAttacker
from repro.experiments.recognition import run_recognition
from repro.testbed import SmartHomeTestbed


@pytest.fixture
def sniffed_home(tmp_path):
    tb = SmartHomeTestbed(seed=151)
    contact = tb.add_device("C5")
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    attacker.capture.clear()
    contact.stimulate("open")
    tb.run(10.0)
    return tb, attacker, tmp_path


class TestCaptureExport:
    def test_jsonl_export_roundtrips(self, sniffed_home):
        tb, attacker, tmp_path = sniffed_home
        path = tmp_path / "capture.jsonl"
        count = attacker.capture.export_jsonl(str(path))
        assert count == len(attacker.capture.frames) > 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == count
        tcp_records = [r for r in records if "src_port" in r]
        assert tcp_records, "expected TCP metadata in the export"
        for record in tcp_records:
            assert {"ts", "src_ip", "dst_ip", "flags", "payload_len"} <= set(record)

    def test_export_contains_no_payload_bytes(self, sniffed_home):
        tb, attacker, tmp_path = sniffed_home
        path = tmp_path / "capture.jsonl"
        attacker.capture.export_jsonl(str(path))
        # Metadata only: sizes, never contents.
        assert "payload\":" not in path.read_text()

    def test_flow_summary(self, sniffed_home):
        tb, attacker, _ = sniffed_home
        summary = attacker.capture.flow_summary()
        assert summary
        row = summary[0]
        assert row["packets"] >= row["data_packets"] > 0
        assert row["payload_bytes"] > 0
        assert row["first_ts"] <= row["last_ts"]


class TestRecognitionExperiment:
    def test_small_home_perfect_accuracy(self):
        report = run_recognition(homes=(("P2", "HS1", "C1"),), seed=153)
        assert report.accuracy == 1.0

    def test_default_homes_perfect_accuracy(self):
        report = run_recognition()
        assert report.accuracy == 1.0, [
            (r.device_id, r.recognised_label) for r in report.rows if not r.correct
        ]

    def test_rows_labelled(self):
        report = run_recognition(homes=(("HS3",),), seed=155)
        assert report.rows[0].expected_label == "HS3"
        assert report.rows[0].recognised_label == "HS3"

    def test_hub_child_recognised_via_event_length(self):
        report = run_recognition(homes=(("C1",),), seed=157)
        by_label = {r.expected_label: r for r in report.rows}
        assert by_label["C1"].correct
