"""Discrete-event scheduler: one binary heap of one-shot timers.

TCP retransmission and keep-alive timers, MQTT PINGREQ periods, HTTP
response timeouts, sensor timelines and the attacker's hold-and-release
schedules are all events in one logical timeline.  Two runs with the same
seed must produce identical packet traces, so ties are broken by insertion
order, never by object identity.

Every timer is a one-shot; a recurring timeout re-arms from its callback.
The heap holds plain ``(when, seq, timer)`` tuples, ``seq`` being one
per-simulator insertion counter, so timers fire in exact ``(when, seq)``
order and the timer itself is never compared.  Cancellation is lazy: a
cancelled timer is skipped when popped, except that one at the heap's tail
(the schedule-then-cancel pattern of defensive cancels) is popped at once.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from typing import Any, Callable, TYPE_CHECKING

from ..obs import telemetry
from ..obs.observer import Observability
from .clock import Clock

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver


class Timer:
    """Handle for a scheduled callback.

    A fired or cancelled timer is inert; ``cancel()`` is idempotent so
    protocol state machines can cancel defensively.
    """

    __slots__ = ("callback", "args", "when", "created_at", "_cancelled", "_fired",
                 "label", "_sim")

    def __init__(self, when: float, callback: Callable[..., Any], args: tuple[Any, ...],
                 label: str = "", created_at: float = 0.0) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.label = label
        self.created_at = created_at
        self._cancelled = False
        self._fired = False
        self._sim: "Simulator | None" = None

    @property
    def active(self) -> bool:
        """True while the timer is pending (not yet fired nor cancelled)."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            sim._on_timer_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else ("fired" if self._fired else "cancelled")
        return f"Timer({self.label or self.callback!r} @ {self.when:.3f}, {state})"


class Simulator:
    """Event loop owning the virtual :class:`Clock`.

    Components schedule callbacks with :meth:`schedule` (relative delay)
    or :meth:`at` (absolute time); ``run_until`` / ``run`` drive the loop.
    The simulator also owns a seeded :class:`random.Random` so that jitter
    (for example TCP retransmission backoff randomisation) is reproducible.
    """

    #: When the event budget is near, fire counts over this trailing window
    #: of events are tallied so the budget error can name the hot timers.
    BUDGET_TALLY_WINDOW = 100_000

    #: Cap on distinct labels the near-budget tally tracks; the long tail
    #: beyond it is folded into ``<other>`` so a high-cardinality label set
    #: cannot grow the tally dict without bound.
    TALLY_MAX_LABELS = 256

    def __init__(self, seed: int = 0, observer: "SimObserver | None" = None) -> None:
        self.clock = Clock()
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._pending = 0  # live (un-fired, un-cancelled) timers
        self._events_processed = 0
        self._max_events = 50_000_000  # runaway-loop backstop
        self._tally_after = max(0, self._max_events - self.BUDGET_TALLY_WINDOW)
        self._label_fires: dict[str, int] = {}
        self._tally_total = 0
        #: Scheduler profiling hook; None keeps the hot loop branch-cheap.
        self._observer = observer
        #: Per-simulation observability facade; disabled until enabled.
        self.obs = Observability()
        #: Optional cross-layer invariant suite (see
        #: :mod:`repro.faults.invariants`); None keeps layer hooks free.
        self.invariants: Any = None
        # Registration is construction-time only: an active telemetry
        # capture learns this simulator exists, and the hot loop stays
        # untouched — counts are read off the finished simulator.
        telemetry.register_simulator(self)

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (scheduled, not yet fired or cancelled) timers."""
        return self._pending

    @property
    def max_events(self) -> int:
        return self._max_events

    @max_events.setter
    def max_events(self, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"event budget must be positive: {budget}")
        self._max_events = budget
        # A budget below the tally window must not go negative: that would
        # re-enable tallying for events already processed and, worse, keep
        # the "near budget" branch permanently hot.  Clamping to zero means
        # small budgets simply tally from the first event.
        self._tally_after = max(0, budget - self.BUDGET_TALLY_WINDOW)
        # A new budget starts a new tally window: fires counted against the
        # old budget must not masquerade as this run's hot timers.
        self._label_fires.clear()
        self._tally_total = 0

    def set_observer(self, observer: "SimObserver | None") -> None:
        """Install (or remove) the scheduler profiling observer."""
        self._observer = observer

    def enable_observability(self, profile_scheduler: bool = True) -> Observability:
        """Turn on the metrics registry and tracer for this simulation.

        With ``profile_scheduler`` a :class:`~repro.obs.SchedulerProfiler`
        is installed as the observer; the facade is returned either way.
        """
        obs = self.obs.enable(self)
        if profile_scheduler and self._observer is None:
            from ..obs.observer import SchedulerProfiler

            assert obs.registry is not None
            self._observer = SchedulerProfiler(obs.registry)
        return obs

    # -------------------------------------------------------------- scheduling

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        return self.at(self.clock._now + delay, callback, *args, label=label)

    def at(
        self, when: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        now = self.clock._now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        timer = Timer(when, callback, args, sys.intern(label) if label else label, now)
        timer._sim = self
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        self._pending += 1
        if self._observer is not None:
            self._observer.timer_scheduled(timer, now)
        return timer

    def call_soon(self, callback: Callable[..., Any], *args: Any, label: str = "") -> Timer:
        """Schedule a callback at the current instant (after pending events)."""
        return self.at(self.clock._now, callback, *args, label=label)

    def _on_timer_cancelled(self, timer: Timer) -> None:
        """Book-keeping for :meth:`Timer.cancel` (flag already set)."""
        self._pending -= 1
        heap = self._heap
        if heap and heap[-1][2] is timer:
            # Dropping the last slot keeps the heap invariant and catches
            # the schedule-then-immediately-cancel pattern, so those timers
            # never linger until their pop.
            heap.pop()

    # ------------------------------------------------------------------ firing

    def peek(self) -> float | None:
        """Time of the next pending event, or None when the queue is drained."""
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns False when nothing is pending."""
        if self.peek() is None:
            return False
        when, _seq, timer = heapq.heappop(self._heap)
        self.clock.advance_to(when)
        timer._fired = True
        self._pending -= 1
        self._events_processed += 1
        if self._events_processed > self._tally_after:
            self._tally_near_budget(timer.label)
        if self._observer is not None:
            self._observer.timer_fired(timer, when, self._pending)
        timer.callback(*timer.args)
        return True

    def _tally_near_budget(self, label: str) -> None:
        """Count fires by label near the budget; raise a diagnosable error.

        The tally only starts within :data:`BUDGET_TALLY_WINDOW` events of
        the budget so normal runs never pay for it; a runaway loop is by
        definition still spinning in that window, so the top labels identify
        the culprit without a debugger.  The tally is a *trailing* window:
        once twice the window has been counted the counts are halved (an
        exponential decay that keeps persistent hot labels on top while
        letting stale ones fade), and at most :data:`TALLY_MAX_LABELS`
        distinct labels are tracked — the long tail folds into ``<other>``.
        """
        fires = self._label_fires
        count = fires.get(label)
        if count is None and len(fires) >= self.TALLY_MAX_LABELS:
            label = "<other>"
            count = fires.get(label)
        fires[label] = 1 if count is None else count + 1
        self._tally_total += 1
        if self._tally_total >= 2 * self.BUDGET_TALLY_WINDOW:
            self._label_fires = {k: v // 2 for k, v in fires.items() if v >= 2}
            self._tally_total = sum(self._label_fires.values())
        if self._events_processed > self._max_events:
            top = sorted(self._label_fires.items(), key=lambda kv: -kv[1])[:5]
            window = min(self.BUDGET_TALLY_WINDOW, self._max_events)
            hot = ", ".join(f"{label or '<unlabelled>'} x{count}" for label, count in top)
            raise RuntimeError(
                f"simulation exceeded event budget ({self._max_events} events); "
                f"runaway loop? hottest timers over the last {window} events: {hot}"
            )

    def run_until(self, deadline: float) -> None:
        """Process events until the clock reaches ``deadline``.

        Events scheduled exactly at ``deadline`` are executed; the clock
        never moves past ``deadline`` even if later events are pending.

        This is the simulator's hot loop, so :meth:`step`'s firing is
        inlined.  ``self._observer`` and ``self._tally_after`` are read per
        event so a callback installing a profiler or tightening
        ``max_events`` mid-run takes effect at the next event.
        """
        clock = self.clock
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when = heap[0][0]
            if when > deadline:
                break
            timer = pop(heap)[2]
            if timer._cancelled:
                continue
            clock._now = when  # heap order guarantees monotonicity
            timer._fired = True
            self._pending -= 1
            self._events_processed += 1
            if self._events_processed > self._tally_after:
                self._tally_near_budget(timer.label)
            observer = self._observer
            if observer is not None:
                observer.timer_fired(timer, when, self._pending)
            timer.callback(*timer.args)
        if deadline > clock._now:
            clock.advance_to(deadline)

    def run(self, for_duration: float | None = None) -> None:
        """Run for ``for_duration`` seconds, or drain the queue when None."""
        if for_duration is not None:
            self.run_until(self.clock._now + for_duration)
            return
        while self.step():
            pass
