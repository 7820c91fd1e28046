"""Equivalence proofs for the binary-heap scheduler.

Two layers of evidence that the scheduler changes *nothing observable*:

1. A hypothesis property drives randomly generated timer programs —
   one-shots and self-rescheduling keep-alive chains with colliding fire
   times, cancellations (including self-cancel and cancel+respawn inside
   a callback, cancel-from-another-event), mid-run spawns, and far-future
   delays — through :class:`Simulator` and through an independent
   textbook heap reference, and demands identical fire logs, event
   counts, live-timer counts and final clocks.

2. Byte-identity pins: the rendered Table I and the canonical Table III
   result digests are asserted against values recorded on an earlier
   scheduler.  Any scheduler change that perturbs event order anywhere in
   the full stack (TLS, TCP, application timers, attacker holds) moves
   these digests.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.cache.keys import canonical
from repro.simnet.scheduler import Simulator

#: sha256 of ``render_table1(run_table1(labels, trials=3, cache=False))``
#: recorded on the pre-wheel scheduler — every scheduler must reproduce it.
TABLE1_SHA256 = "9f9a848f786f46ddd76592c3d2a74206ea9cbb04fc6567177285be2eefc40f08"
TABLE1_LABELS = ["HS1", "C2", "M7"]

#: blake2b-128 of ``canonical(run_table3(cache=False))``, same provenance.
TABLE3_BLAKE2B = "b29df45a230f797f5cbe33dd7b4e8d2f"


# --------------------------------------------------------------- reference

class _RefTimer:
    __slots__ = ("callback", "args", "_cancelled", "_fired")

    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    @property
    def active(self):
        return not (self._cancelled or self._fired)

    def cancel(self):
        if not self._fired:
            self._cancelled = True


class _HeapReference:
    """Textbook binary-heap scheduler with the Simulator's semantics.

    Global ``(when, seq)`` order over one insertion counter; cancelled
    timers stay queued and are skipped at pop time; the clock lands
    exactly on the deadline.
    """

    def __init__(self):
        self.now = 0.0
        self._q = []
        self._seq = itertools.count()
        self._events_processed = 0

    @property
    def pending_events(self):
        return sum(1 for _when, _seq, timer in self._q if timer.active)

    def schedule(self, delay, callback, *args, label=""):
        timer = _RefTimer(callback, args)
        heapq.heappush(self._q, (self.now + delay, next(self._seq), timer))
        return timer

    def run_until(self, deadline):
        q = self._q
        while q and q[0][0] <= deadline:
            when, _seq, timer = heapq.heappop(q)
            if timer._cancelled:
                continue
            self.now = when
            timer._fired = True
            self._events_processed += 1
            timer.callback(*timer.args)
        self.now = max(self.now, deadline)


# ---------------------------------------------------------------- programs

#: Delays drawn from a coarse grid so distinct timers collide on the same
#: fire instant and tie-breaking (insertion order) actually gets exercised.
#: It spans sub-second protocol timers and idles of over a minute, so long
#: waits between bursts are covered too.
_DELAYS = st.sampled_from(
    [0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0, 7.75, 9.5, 11.0, 27.5, 40.0, 82.5]
)
_PERIODS = st.sampled_from([0.25, 0.5, 0.5, 1.0, 3.0, 8.25, 33.0])

_ONESHOT = st.tuples(st.just("one"), _DELAYS,
                     st.sampled_from(["noop", "spawn", "cancel", "respawn"]))
_CHAIN = st.tuples(st.just("chain"), _PERIODS, _DELAYS,
                   st.integers(min_value=0, max_value=6),
                   st.sampled_from(["stop", "self-cancel", "respawn"]))

_PROGRAM = st.lists(st.one_of(_ONESHOT, _CHAIN), min_size=1, max_size=12)

#: Past every far-future one-shot and most slow chains; a chain still
#: armed at the deadline must be live in both schedulers alike.
_DEADLINE = 300.0


def _execute(sim, program, deadline):
    """Run one generated program on ``sim``; returns the fire log.

    ``handles[idx]`` is always entry ``idx``'s current timer, so cancelling
    it from another event stops a chain just like a protocol state machine
    cancelling its pending keep-alive.
    """
    log = []
    handles = []

    def cancel_next_sibling(idx):
        for h in handles[idx + 1:]:
            if h.active:
                h.cancel()
                return True
        return False

    def fire_oneshot(idx, action):
        log.append(("one", idx, sim.now))
        if action == "spawn":
            sim.schedule(0.25, lambda: log.append(("spawned", idx, sim.now)),
                         label=f"spawn{idx}")
        elif action == "cancel":
            cancel_next_sibling(idx)
        elif action == "respawn":
            # Net-zero trick: replace a pending sibling with a new timer.
            if cancel_next_sibling(idx):
                sim.schedule(0.5, lambda: log.append(("resp", idx, sim.now)),
                             label=f"resp{idx}")

    def fire_chain(idx, period, limit, action, fires):
        log.append(("chain", idx, sim.now))
        if action == "stop" and fires >= limit:
            return
        # Re-arm from inside the callback, the way keep-alives recur.
        handles[idx] = sim.schedule(
            period, fire_chain, idx, period, limit, action, fires + 1,
            label=f"chain{idx}",
        )
        if fires < limit:
            return
        # Past the limit: cancel the re-arm we just made ...
        handles[idx].cancel()
        if action == "respawn":
            # ... and arm a replacement in the same callback.
            handles[idx] = sim.schedule(
                7.5, lambda: log.append(("swap", idx, sim.now)),
                label=f"swap{idx}",
            )

    for idx, spec in enumerate(program):
        if spec[0] == "one":
            _, delay, action = spec
            handles.append(
                sim.schedule(delay, fire_oneshot, idx, action, label=f"one{idx}")
            )
        else:
            _, period, first_extra, limit, action = spec
            handles.append(
                sim.schedule(period + first_extra, fire_chain, idx, period,
                             limit, action, 0, label=f"chain{idx}")
            )
    sim.run_until(deadline / 2)
    midway = sim.pending_events
    sim.run_until(deadline)
    return log, midway


def _check_against_reference(program, deadline):
    sim = Simulator()
    reference = _HeapReference()
    assert _execute(sim, program, deadline) == _execute(
        reference, program, deadline
    )
    assert sim.events_processed == reference._events_processed
    assert sim.pending_events == reference.pending_events
    assert sim.now == reference.now == deadline


@given(program=_PROGRAM)
@settings(max_examples=80, deadline=None)
def test_wheel_matches_heap_reference(program):
    """The scheduler (once a timer wheel, now one heap) matches the reference."""
    _check_against_reference(program, _DEADLINE)


@given(program=_PROGRAM)
@settings(max_examples=25, deadline=None)
def test_wheel_overflow_horizon_matches_reference(program):
    """Same property with every delay and period stretched elevenfold.

    This puts nearly all timers far past the old wheel's 8 s horizon, so
    long-range ordering is checked on sparse, minutes-apart deadlines.
    """
    scale = 11.0

    def stretch(spec):
        if spec[0] == "one":
            return ("one", spec[1] * scale, spec[2])
        return ("chain", spec[1] * scale, spec[2] * scale, spec[3], spec[4])

    _check_against_reference([stretch(s) for s in program], _DEADLINE * scale)


# ------------------------------------------------------------- digest pins

def test_table1_byte_identity_pin():
    from repro.experiments.table1 import render_table1, run_table1

    rows = run_table1(labels=TABLE1_LABELS, trials=3, cache=False)
    digest = hashlib.sha256(render_table1(rows).encode()).hexdigest()
    assert digest == TABLE1_SHA256, (
        "Table I bytes moved — the scheduler (or anything beneath it) "
        f"perturbed event order: {digest}"
    )


def test_table3_canonical_digest_pin():
    from repro.experiments.table3 import run_table3

    digest = hashlib.blake2b(
        canonical(run_table3(cache=False)), digest_size=16
    ).hexdigest()
    assert digest == TABLE3_BLAKE2B, (
        f"Table III canonical result moved: {digest}"
    )
