"""Discrete-event simulation kernel.

The kernel is intentionally small: a time-ordered event queue plus a
deterministic tie-break sequence number.  Everything else in the library
(signals, processes, clocked FSMs, the analog solver) is built on
:meth:`Simulator.schedule`.

Determinism
-----------
Events scheduled for the same instant fire in priority order (lower first),
then in order of the instant they were scheduled at (``Event.born``), then
in scheduling order (FIFO), so a simulation is a pure function of its
inputs and the RNG seed.  A simulator's ``now`` only moves forward, so
among its events queued by :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` birth order is FIFO order;
:meth:`Simulator.schedule_as_of` is the only way to queue an event with an
earlier birth.  All stochastic elements (metastability resolution, sensor
jitter) draw from ``Simulator.rng`` which is seeded at construction.

Simulators built with ``share_heap`` push into one heap with one sequence
counter (the lanes of a fixed-step vector batch do this).  Each heap entry
carries the simulator that scheduled it, so delivery sets *that*
simulator's ``now`` and counts the event on it.  Same-instant events of
different simulators tie-break by birth, then by the shared sequence
counter.

Almost everything schedules at the default priority 0 and sees pure FIFO
ordering.  The one consumer of the priority lane is the adaptive analog
solver: its micro-step commits run at priority -1, so a step that was
*snapped* onto an event's timestamp integrates up to that instant with the
pre-event state before the event (a gate commutation, say) takes effect.

``Simulator.current`` is the event being delivered.  A gated clock passes
it to :meth:`~repro.digital.clock.Clock.fast_forward`, which re-arms the
next edge as of the birth the ungated edge would have
(:meth:`Simulator.schedule_as_of`).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, List, MutableSequence, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, time travel)."""


class Event:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.schedule`; calling :meth:`cancel` before the
    event fires turns it into a no-op.  Cancellation is O(1) (lazy removal:
    delivery drops the callback when it pops the cancelled entry).
    ``born`` is the simulation time it was scheduled at.
    """

    __slots__ = ("time", "fn", "cancelled", "born")

    def __init__(self, time: float, fn: Callable[[], None], born: float):
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.born = born

    def cancel(self) -> None:
        self.cancelled = True

    def restore(self) -> bool:
        """Undo :meth:`cancel` while the cancelled entry is still queued,
        where the event keeps its place.  Returns whether it did: once
        delivery has popped the entry, the event is gone for good."""
        if self.fn is None:
            return False
        self.cancelled = False
        return True

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
    share_heap:
        Push into this simulator's event heap and sequence counter
        instead of owning new ones.  Draining any member of the group
        (:meth:`run_until`, :meth:`run_before`) then delivers every
        member's events in global time order.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5e-9, lambda: fired.append(sim.now))
    >>> sim.run(1e-6)
    >>> fired
    [5e-09]
    """

    def __init__(self, seed: Optional[int] = 0,
                 share_heap: Optional["Simulator"] = None):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        if share_heap is None:
            self._queue: List[
                Tuple[float, int, float, int, Event, Simulator]] = []
            self._seq = itertools.count(1)
        else:
            self._queue = share_heap._queue
            self._seq = share_heap._seq
        #: events actually fired through the loop (cancelled pops excluded)
        self.events_delivered: int = 0
        #: the event being delivered (between deliveries: the last one)
        self.current: Optional[Event] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # hot path: inlined schedule_at (same semantics, one call less)
        now = self.now
        event = Event(now + delay, fn, now)
        heapq.heappush(self._queue, (event.time, priority, now,
                                     next(self._seq), event, self))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``fn`` to run at absolute simulation time ``time``."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={now}"
            )
        event = Event(time, fn, now)
        heapq.heappush(self._queue,
                       (time, priority, now, next(self._seq), event, self))
        return event

    def schedule_as_of(self, time: float, fn: Callable[[], None],
                       born: float) -> Event:
        """Schedule ``fn`` at ``time`` (priority 0) as if it had been
        scheduled at the earlier instant ``born``: it goes after the
        same-instant events born before ``born`` and ahead of those born
        at or after it.  Of two such events with one birth, the one
        scheduled last goes first (its sequence key is negated)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(time, fn, born)
        heapq.heappush(self._queue,
                       (time, 0, born, -next(self._seq), event, self))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> None:
        """Run all events with timestamp <= ``t_end``, then set now = t_end.

        Each event sets its owner's ``now`` and counts on its owner's
        ``events_delivered``; on a shared heap only this simulator's
        ``now`` moves to ``t_end`` afterwards.
        """
        if t_end < self.now:
            raise SimulationError(f"t_end={t_end} is before current time {self.now}")
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= t_end:
            time, _prio, _born, _seq, event, sim = pop(queue)
            if event.cancelled:
                event.fn = None
                continue
            sim.now = time
            sim.current = event
            sim.events_delivered += 1
            event.fn()
        self.now = t_end

    def run_before(self, limits: MutableSequence[float], index: int) -> None:
        """Fire, in order, every event strictly before ``limits[index]``.

        The limit is re-read after each event, so a callback may lower it
        mid-drain and the events at or past the new limit stay queued —
        the adaptive vector solver delivers each lane's events in one
        call this way while a gate commutation scheduled by a cascade
        can still shrink that lane's step end.  ``now`` is left at the
        last fired event's timestamp (unchanged when nothing fired).
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _prio, _born, _seq, event, sim = queue[0]
            if time >= limits[index]:
                return
            pop(queue)
            if event.cancelled:
                event.fn = None
                continue
            sim.now = time
            sim.current = event
            sim.events_delivered += 1
            event.fn()

    def run_one_before(self, t_limit: float) -> bool:
        """Fire the single earliest event strictly before ``t_limit``.

        Returns True when an event fired, False when the next live event
        is at or past ``t_limit`` (or the queue is empty).  ``now`` is
        left at the fired event's timestamp.  :meth:`run_before` is the
        draining form.
        """
        queue = self._queue
        while queue:
            time, _prio, _born, _seq, event, sim = queue[0]
            if time >= t_limit:
                return False
            heapq.heappop(queue)
            if event.cancelled:
                event.fn = None
                continue
            sim.now = time
            sim.current = event
            sim.events_delivered += 1
            event.fn()
            return True
        return False

    def run(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        self.run_until(self.now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now!r})"
