"""Clock and non-overlapping pulse generators.

The synchronous multiphase controller (paper Fig. 5a) uses two clocks:

- ``fsm_clk`` — fast (hundreds of MHz), polling sensors and clocking FSMs;
- ``phase_clk`` — slow (few MHz), from which the phase activator derives
  non-overlapping activation pulses in a round-robin pattern.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..sim.core import Event, Simulator
from ..sim.signal import Signal


class Clock:
    """Free-running clock signal with suspend / fast-forward support.

    Parameters
    ----------
    period:
        Clock period in seconds.
    duty:
        High-time fraction.
    phase:
        Delay of the first rising edge.

    Gating
    ------
    :meth:`suspend` cancels the pending edge event; :meth:`fast_forward`
    re-arms the clock at a later time, accounting for the edges that were
    skipped *arithmetically* (no kernel events, no listener dispatch).
    The skipped-edge times are reproduced with the exact same chain of
    float additions the live clock would have performed, so the re-armed
    edge grid is bit-identical to an ungated run's, and the re-armed edge
    takes its ungated place among same-instant events (see
    :meth:`fast_forward`).

    ``edges_simulated`` counts edges delivered through the event loop,
    ``edges_skipped`` counts edges absorbed by fast-forward jumps.
    """

    def __init__(self, sim: Simulator, name: str, period: float,
                 duty: float = 0.5, phase: float = 0.0, trace: bool = False):
        if period <= 0:
            raise ValueError("clock period must be positive")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty cycle must be in (0, 1)")
        self.sim = sim
        self.period = period
        self.duty = duty
        self.signal = Signal(sim, name, init=False, trace=trace)
        high = period * duty
        #: time from an edge to the next, indexed by the edge's kind
        #: (False = fall, True = rise)
        self._after = (period - high, high)
        self.edges_simulated = 0
        self.edges_skipped = 0
        self._suspended = False
        self._next_at = sim.now + phase
        self._next_is_rise = True
        self._pending = sim.schedule(phase, self._edge)

    def _edge(self) -> None:
        is_rise = self._next_is_rise
        self.edges_simulated += 1
        # an edge fires at exactly _next_at, so accumulating from it is
        # the chain of float additions fast_forward replays
        at = self._next_at + self._after[is_rise]
        self._next_at = at
        self._next_is_rise = not is_rise
        # schedule before dispatching: a listener may suspend() the clock
        # from inside this very edge, which must cancel the follow-up
        self._pending = self.sim.schedule_at(at, self._edge)
        self.signal._apply(is_rise)

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------
    @property
    def suspended(self) -> bool:
        return self._suspended

    def suspend(self) -> None:
        """Stop delivering edges (cancels the pending edge event)."""
        if self._suspended:
            return
        self._suspended = True
        self._pending.cancel()

    def fast_forward(self, t: float, cause: Optional[Event] = None) -> None:
        """Re-arm a suspended clock as of time ``t``.

        ``cause`` is the event whose delivery wakes the clock (``None``
        outside one).  Edges the ungated clock would have fired before
        it are skipped: counted, value applied silently via
        :meth:`Signal.force`, no listener dispatch.  Those are the edges
        before ``t`` and, at exactly ``t``, the ones queued ahead of the
        cause.  The cancelled edge, while still queued, is restored in
        its own place (:meth:`~repro.sim.core.Event.restore`).  A
        replayed edge is queued as of the instant the edge before it
        fired (:meth:`~repro.sim.core.Simulator.schedule_as_of`), so its
        heap key puts it ahead of the events born at that instant: the
        clock edge that fired there was queued a half period ahead.
        """
        if not self._suspended:
            return
        self._suspended = False
        pending = self._pending
        at = self._next_at
        # at t, a cancelled edge still queued comes after the cause
        if at >= t and pending.restore():
            return
        born = -math.inf if cause is None else cause.born
        after = self._after
        # Replays the live clock's own accumulation (_edge, inlined: a
        # pass skips hundreds of thousands of edges) so the surviving grid
        # is bit-identical to an ungated run.  The pending edge goes
        # first; each later one is born when the edge before it fires.
        is_rise = self._next_is_rise
        value, prev, at = is_rise, at, at + after[is_rise]
        is_rise = not is_rise
        skipped = 1
        while at < t or at == t and prev <= born:
            value = is_rise
            prev = at
            skipped += 1
            at = at + after[is_rise]
            is_rise = not is_rise
        self.edges_skipped += skipped
        if value != self.signal.value:
            self.signal.force(value)
        self._next_at = at
        self._next_is_rise = is_rise
        self._pending = self.sim.schedule_as_of(at, self._edge, prev)


class PhaseActivator:
    """Round-robin generator of non-overlapping activation pulses.

    Produces N ``act[k]`` signals; each is high for ``pulse_width`` once per
    rotation, with guaranteed gaps (non-overlap) between consecutive
    phases.  This is the synchronous design's phase selection mechanism;
    the asynchronous design replaces it with a token ring whose per-stage
    timer has the same dwell time.
    """

    def __init__(self, sim: Simulator, name: str, n_phases: int,
                 dwell: float, gap_fraction: float = 0.05,
                 trace: bool = True):
        if n_phases < 1:
            raise ValueError("need at least one phase")
        if dwell <= 0:
            raise ValueError("dwell time must be positive")
        if not 0.0 <= gap_fraction < 1.0:
            raise ValueError("gap fraction must be in [0, 1)")
        self.sim = sim
        self.n_phases = n_phases
        self.dwell = dwell
        self.gap = dwell * gap_fraction
        self.act: List[Signal] = [
            Signal(sim, f"{name}.act{k}", trace=trace) for k in range(n_phases)
        ]
        self._current = 0
        sim.schedule(0.0, self._activate)

    def _activate(self) -> None:
        sig = self.act[self._current]
        sig._apply(True)
        self.sim.schedule(self.dwell - self.gap, lambda s=sig: self._deactivate(s))

    def _deactivate(self, sig: Signal) -> None:
        sig._apply(False)
        self._current = (self._current + 1) % self.n_phases
        self.sim.schedule(self.gap, self._activate)
