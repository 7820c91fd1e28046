"""Idle smart-home day: wall time of one simulated day of heartbeats.

The paper's victim population is a smart home that spends most of a day
*idle*: every device just heartbeats — MQTT keep-alives, TCP keep-alive
probes, periodic sensor reports — and nothing else happens.  This bench
simulates 24 hours of that steady state for a 20-device fleet (60
heartbeat timers, ≈90k events).  Each heartbeat is a one-shot timer that
re-arms itself from its own callback, the way the protocol layers arm
their keep-alives.

The single number is ``day_wall_ms``, the best-of-3 wall time of the
whole day, gated against the committed baseline by
:func:`check_regression` when the baseline simulated the same day.

``REPRO_BENCH_IDLE_SECONDS`` shrinks the simulated day for smoke runs.
"""

from __future__ import annotations

import os
import time

from repro.simnet.scheduler import Simulator

from _perf import baseline_matches, check_regression, record_bench

#: Simulated horizon (one day of idle steady state by default).
DAY = float(os.environ.get("REPRO_BENCH_IDLE_SECONDS", 86_400))

N_DEVICES = 20

#: Per-device heartbeat periods, staggered so fires interleave instead of
#: phase-locking: an MQTT keep-alive, a TCP keep-alive probe cycle, and a
#: periodic sensor report — the Table I idle traffic mix.
def _device_periods(i: int) -> tuple[float, float, float]:
    return (29.0 + 0.25 * i, 45.0 + 1.5 * i, 300.0 + float(i))


def _drive() -> tuple[int, float]:
    """One simulated day; returns (events, wall seconds)."""
    sim = Simulator()

    def arm(period: float, label: str) -> None:
        def fire() -> None:
            sim.schedule(period, fire, label=label)

        sim.schedule(period, fire, label=label)

    for i in range(N_DEVICES):
        mqtt, tcpka, sensor = _device_periods(i)
        arm(mqtt, f"dev{i}:mqtt-ka")
        arm(tcpka, f"dev{i}:tcp-ka")
        arm(sensor, f"dev{i}:sensor")
    start = time.perf_counter()
    sim.run_until(DAY)
    return sim.events_processed, time.perf_counter() - start


def test_idle_home_day():
    runs = [_drive() for _ in range(3)]
    events = runs[0][0]
    assert all(n == events for n, _ in runs), "the day must be deterministic"
    wall_ms = min(wall for _, wall in runs) * 1e3
    entry = record_bench(
        "idle_home_bench",
        devices=N_DEVICES,
        timers=N_DEVICES * 3,
        day_seconds=DAY,
        events=events,
        day_wall_ms=round(wall_ms, 2),
    )
    print()
    print(f"idle home day: {events} events in {wall_ms:.1f} ms -> {entry}")
    if baseline_matches("idle_home_bench", day_seconds=DAY, devices=N_DEVICES):
        check_regression("idle_home_bench", "day_wall_ms", wall_ms,
                         larger_is_better=False)
