"""Discrete-event simulation kernel.

The kernel is intentionally small: a time-ordered event queue plus a
deterministic tie-break sequence number.  Everything else in the library
(signals, processes, clocked FSMs, the analog solver) is built on
:meth:`Simulator.schedule`.

Determinism
-----------
Events scheduled for the same instant fire in priority order (lower first),
then in scheduling order (FIFO), so a simulation is a pure function of its
inputs and the RNG seed.  All stochastic elements (metastability resolution,
sensor jitter) draw from ``Simulator.rng`` which is seeded at construction.

Almost everything schedules at the default priority 0 and sees pure FIFO
ordering.  The one consumer of the priority lane is the adaptive analog
solver: its micro-step commits run at priority -1, so a step that was
*snapped* onto an event's timestamp integrates up to that instant with the
pre-event state before the event (a gate commutation, say) takes effect.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, time travel)."""


class Event:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.schedule`; calling :meth:`cancel` before the
    event fires turns it into a no-op.  Cancellation is O(1) (lazy removal).
    """

    __slots__ = ("time", "fn", "cancelled")

    def __init__(self, time: float, fn: Callable[[], None]):
        self.time = time
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time!r}, {state})"


class Simulator:
    """Event-driven simulator with deterministic same-time ordering.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned RNG.  Two simulators built with the
        same seed and fed the same schedule produce identical histories.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5e-9, lambda: fired.append(sim.now))
    >>> sim.run(1e-6)
    >>> fired
    [5e-09]
    """

    def __init__(self, seed: Optional[int] = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: events actually fired through the loop (cancelled pops excluded)
        self.events_delivered: int = 0
        #: hook invoked before each event fires, used by the tracer
        self.on_step: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # hot path: inlined schedule_at (same semantics, one call less)
        event = Event(self.now + delay, fn)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, priority, self._seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``fn`` to run at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(time, fn)
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> None:
        """Run all events with timestamp <= ``t_end``, then set now = t_end."""
        if t_end < self.now:
            raise SimulationError(f"t_end={t_end} is before current time {self.now}")
        queue = self._queue
        pop = heapq.heappop
        delivered = 0
        try:
            while queue and queue[0][0] <= t_end:
                time, _prio, _seq, event = pop(queue)
                if event.cancelled:
                    continue
                delivered += 1
                self.now = time
                if self.on_step is not None:
                    self.on_step(time)
                event.fn()
            self.now = t_end
        finally:
            self.events_delivered += delivered

    def run_one_before(self, t_limit: float) -> bool:
        """Fire the single earliest event strictly before ``t_limit``.

        Returns True when an event fired, False when the next live event
        is at or past ``t_limit`` (or the queue is empty).  ``now`` is
        left at the fired event's timestamp — the adaptive lock-step
        solver uses this to deliver digital events one at a time while it
        may still shrink the current step's end in reaction to them.
        """
        queue = self._queue
        while queue:
            time, _prio, _seq, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if time >= t_limit:
                return False
            heapq.heappop(queue)
            self.events_delivered += 1
            self.now = time
            if self.on_step is not None:
                self.on_step(time)
            event.fn()
            return True
        return False

    def run(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        self.run_until(self.now + duration)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (guarded by ``max_events``)."""
        count = 0
        try:
            while self._queue:
                time, _prio, _seq, event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; livelock suspected"
                    )
                self.now = time
                if self.on_step is not None:
                    self.on_step(time)
                event.fn()
        finally:
            self.events_delivered += count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for _, _, _, e in self._queue if not e.cancelled)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty.

        Cancelled heads are popped lazily, so the amortized cost is O(1)
        (plus O(log n) per cancelled event, paid once).  Equal-time events
        are fine: the heap root is ordered by ``(time, priority, seq)``,
        and every tied entry carries the same timestamp, so whichever tie
        sits at the root yields the correct answer.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3].cancelled:
                heapq.heappop(queue)
                continue
            return entry[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now!r}, pending={self.pending_events()})"
