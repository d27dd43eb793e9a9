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

Simulators built with ``share_heap`` push into one heap with one sequence
counter (the lanes of a fixed-step vector batch do this).  Each heap entry
carries the simulator that scheduled it, so delivery sets *that*
simulator's ``now`` and counts the event on it.  Each simulator keeps its
own FIFO order; same-instant events of different simulators tie-break by
the shared sequence counter.

Almost everything schedules at the default priority 0 and sees pure FIFO
ordering.  The one consumer of the priority lane is the adaptive analog
solver: its micro-step commits run at priority -1, so a step that was
*snapped* onto an event's timestamp integrates up to that instant with the
pre-event state before the event (a gate commutation, say) takes effect.
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
            self._queue: List[Tuple[float, int, int, Event, Simulator]] = []
            self._seq = itertools.count(1)
        else:
            self._queue = share_heap._queue
            self._seq = share_heap._seq
        #: events actually fired through the loop (cancelled pops excluded)
        self.events_delivered: int = 0

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
        heapq.heappush(self._queue,
                       (event.time, priority, next(self._seq), event, self))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``fn`` to run at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(time, fn)
        heapq.heappush(self._queue,
                       (time, priority, next(self._seq), event, self))
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
            time, _prio, _seq, event, sim = pop(queue)
            if event.cancelled:
                continue
            sim.now = time
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
            time, _prio, _seq, event, sim = queue[0]
            if event.cancelled:
                pop(queue)
                continue
            if time >= limits[index]:
                return
            pop(queue)
            sim.now = time
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
            time, _prio, _seq, event, sim = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if time >= t_limit:
                return False
            heapq.heappop(queue)
            sim.now = time
            sim.events_delivered += 1
            event.fn()
            return True
        return False

    def run(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        self.run_until(self.now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now!r})"
