"""The bench regression gate in ``benchmarks/_perf.py``.

The gate must compare against the committed ``BENCH_campaign.json`` even
when ``REPRO_BENCH_OUT`` redirects new records elsewhere; a redirected,
empty output file used to become the baseline and disarm every gate.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "_perf.py"

BENCH, FIELD = "scheduler_microbench", "oneshot_events_per_sec"


@pytest.fixture
def perf(monkeypatch, tmp_path):
    """A fresh ``_perf`` module (empty memo) writing to ``tmp_path``."""
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path / "out.json"))
    monkeypatch.delenv("REPRO_BENCH_GATE", raising=False)
    spec = importlib.util.spec_from_file_location("_perf_under_test", _PERF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed(perf) -> float:
    with open(perf.COMMITTED_PATH) as fh:
        return float(json.load(fh)["benchmarks"][BENCH][FIELD])


def test_redirected_output_still_gates(perf, tmp_path):
    committed = _committed(perf)
    assert perf.bench_out_path() == str(tmp_path / "out.json")
    assert perf.baseline_value(BENCH, FIELD) == committed
    with pytest.raises(AssertionError, match="perf regression"):
        perf.check_regression(BENCH, FIELD, committed * 0.5)
    perf.check_regression(BENCH, FIELD, committed)


def test_redirected_record_leaves_baseline_alone(perf, tmp_path):
    committed = _committed(perf)
    perf.record_bench(BENCH, **{FIELD: 1})
    with open(tmp_path / "out.json") as fh:
        assert json.load(fh)["benchmarks"][BENCH][FIELD] == 1
    assert _committed(perf) == committed
    with pytest.raises(AssertionError, match="perf regression"):
        perf.check_regression(BENCH, FIELD, committed * 0.5)
