"""Perf-trajectory recorder and regression gate for ``BENCH_campaign.json``.

Every perf-sensitive bench records its headline numbers here so the
repository carries a machine-readable history of how fast the simulator
and the campaign runner are.  The file lives at the repo root (redirect
new records with ``REPRO_BENCH_OUT``) and CI uploads it as an artifact, so
a perf regression shows up as a diff, not as a vague feeling.

Records are merged by bench name — re-running one bench updates its entry
and leaves the others alone.  Each record is stamped with ``git_describe``
so a trajectory point is attributable to a commit.

:func:`check_regression` is the gate: it compares a freshly measured
number against the *committed* baseline — always the repo-root file,
wherever ``REPRO_BENCH_OUT`` sends new records, memoised before any
``record_bench`` overwrites it — and fails the bench when the fresh
number regressed beyond tolerance.  Set ``REPRO_BENCH_GATE=0`` to record
without gating (e.g. on a deliberately slow machine).
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any

#: The committed bench file: the gate's baseline and the default output.
COMMITTED_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_campaign.json")
)

#: Default relative regression tolerated before the gate fails (25%).
DEFAULT_TOLERANCE = 0.25

#: The committed baseline, memoised at first use so the gate always
#: compares against the numbers checked into git, not the ones a bench
#: recorded thirty seconds ago.
_BASELINE: dict[str, Any] | None = None


def bench_out_path() -> str:
    return os.path.abspath(os.environ.get("REPRO_BENCH_OUT", COMMITTED_PATH))


def _git_describe() -> str:
    from repro.obs.manifest import git_describe

    return git_describe()


def load_baseline() -> dict[str, Any]:
    """The committed bench file's ``benchmarks`` mapping (memoised).

    Read from :data:`COMMITTED_PATH`, never from :func:`bench_out_path`:
    redirected output starts empty, and gating against it would pass
    every regression.
    """
    global _BASELINE
    if _BASELINE is None:
        baseline: dict[str, Any] = {}
        try:
            with open(COMMITTED_PATH) as fh:
                baseline = json.load(fh).get("benchmarks", {})
        except (OSError, ValueError):
            baseline = {}
        _BASELINE = baseline
    return _BASELINE


def baseline_value(name: str, field: str) -> float | None:
    """One committed number, or None when the baseline lacks it."""
    entry = load_baseline().get(name)
    if not isinstance(entry, dict):
        return None
    value = entry.get(field)
    return float(value) if isinstance(value, (int, float)) else None


def gate_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_GATE", "1") != "0"


def baseline_matches(name: str, **workload: Any) -> bool:
    """Whether the committed entry ran the same workload.

    Wall-clock fields are only comparable when the workload (trials,
    jobs, ...) matches what the baseline measured — ``REPRO_BENCH_TRIALS``
    on CI shrinks the work, and gating a 2-trial run against a 20-trial
    baseline is meaningless in either direction.
    """
    entry = load_baseline().get(name)
    if not isinstance(entry, dict):
        return False
    return all(entry.get(key) == value for key, value in workload.items())


def cpu_comparable(name: str) -> bool:
    """Whether parallel-speedup fields are gateable on this machine.

    Speedup is a property of the hardware as much as of the code: a
    1-core runner physically cannot beat serial (fork overhead pushes
    speedup below 1 — the committed ``table1_parallel`` entry records
    0.949 for exactly that reason), and a baseline recorded on a
    different core count measured a different quantity.  Speedup
    assertions therefore only run when this machine has more than one
    CPU *and* the committed entry was recorded on the same core count.
    """
    cores = os.cpu_count() or 1
    if cores <= 1:
        return False
    entry = load_baseline().get(name)
    return isinstance(entry, dict) and entry.get("cpu_count") == cores


def check_regression(
    name: str,
    field: str,
    fresh: float,
    tolerance: float = DEFAULT_TOLERANCE,
    larger_is_better: bool = True,
) -> None:
    """Fail (``AssertionError``) when ``fresh`` regressed past tolerance.

    A throughput field (``larger_is_better``) may drop at most
    ``tolerance`` below the committed baseline; a latency-style field may
    rise at most ``tolerance`` above it.  Missing baselines pass — the
    first recorded run *creates* the baseline.
    """
    baseline = baseline_value(name, field)
    if baseline is None or baseline == 0 or not gate_enabled():
        return
    if larger_is_better:
        floor = baseline * (1.0 - tolerance)
        assert fresh >= floor, (
            f"perf regression: {name}.{field} = {fresh:.1f} fell below "
            f"{floor:.1f} ({tolerance:.0%} under the committed baseline "
            f"{baseline:.1f}); investigate before re-recording "
            "BENCH_campaign.json (REPRO_BENCH_GATE=0 skips the gate)"
        )
    else:
        ceiling = baseline * (1.0 + tolerance)
        assert fresh <= ceiling, (
            f"perf regression: {name}.{field} = {fresh:.3f} rose above "
            f"{ceiling:.3f} ({tolerance:.0%} over the committed baseline "
            f"{baseline:.3f}); investigate before re-recording "
            "BENCH_campaign.json (REPRO_BENCH_GATE=0 skips the gate)"
        )


def record_bench(name: str, **fields: Any) -> dict[str, Any]:
    """Merge one bench's results into the campaign perf file."""
    load_baseline()  # pin the committed numbers before the first overwrite
    path = bench_out_path()
    data: dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    benches = data.setdefault("benchmarks", {})
    benches[name] = {
        **fields,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_describe": _git_describe(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    data["updated_at"] = benches[name]["recorded_at"]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return benches[name]
