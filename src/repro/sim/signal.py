"""Digital signals and analog probes.

:class:`Signal` is a single-driver boolean net.  Value changes are scheduled
through the simulator (transport delay semantics — every scheduled edge is
delivered, which is what non-persistent comparator outputs need), and edge
subscribers are notified synchronously when the change applies.

:class:`AnalogProbe` records a piecewise-linear real-valued waveform and keeps
its running min / max even when full tracing is disabled, so parameter
sweeps stay cheap.

Both record into typed :mod:`array` columns (``'d'`` times and values,
``'b'`` digital values): 8 bytes per analog sample and 9 per digital
change, against a boxed float in a list.  A numpy view of a column pins
it (the next append raises :class:`BufferError`), so readers that build
arrays from a live recorder copy out of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from .core import Event, Simulator

#: edge kinds accepted by :meth:`Signal.subscribe`
RISE = "rise"
FALL = "fall"
ANY = "any"

Listener = Callable[["Signal", bool], None]


class Signal:
    """A boolean net with scheduled updates and edge notification.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Hierarchical name used in traces and error messages.
    init:
        Initial value at t=0.
    trace:
        When True, keep the full change history: the change instants in
        :attr:`times` and the values taken (0/1) in :attr:`values`; the
        initial value at creation is always the first entry.
    """

    __slots__ = ("sim", "name", "_value", "_listeners", "trace", "times",
                 "values")

    def __init__(self, sim: Simulator, name: str, init: bool = False,
                 trace: bool = True):
        self.sim = sim
        self.name = name
        self._value = bool(init)
        self._listeners: List[Tuple[str, Listener]] = []
        self.trace = trace
        self.times = array("d", (sim.now,))
        self.values = array("b", (self._value,))

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def value(self) -> bool:
        return self._value

    def __bool__(self) -> bool:
        return self._value

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def set(self, value: bool, delay: float = 0.0) -> Optional[Event]:
        """Schedule the signal to take ``value`` after ``delay`` seconds.

        Returns the kernel event (cancellable) or ``None`` for an immediate
        update.  With ``delay == 0`` the update applies synchronously, in
        the current event — asynchronous circuit models rely on this for
        zero-delay forwarding inside composite elements.
        """
        value = bool(value)
        if delay == 0.0:
            self._apply(value)
            return None
        return self.sim.schedule(delay, lambda: self._apply(value))

    def toggle(self, delay: float = 0.0) -> Optional[Event]:
        """Schedule an inversion of the *current* value after ``delay``."""
        return self.set(not self._value, delay)

    def pulse(self, width: float, delay: float = 0.0) -> None:
        """Drive a high pulse of ``width`` seconds starting after ``delay``."""
        self.set(True, delay)
        self.sim.schedule(delay + width, lambda: self._apply(False))

    def _apply(self, value: bool) -> None:
        if value == self._value:
            return
        self._value = value
        if self.trace:
            self.times.append(self.sim.now)
            self.values.append(value)
        listeners = self._listeners
        if not listeners:
            return
        edge = RISE if value else FALL
        if len(listeners) == 1:
            # Fast path: the snapshot below exists because listeners may
            # (un)subscribe during notification; with a single listener a
            # local reference gives the same semantics without the copy.
            kind, fn = listeners[0]
            if kind == ANY or kind == edge:
                fn(self, value)
            return
        for kind, fn in list(listeners):
            if kind == ANY or kind == edge:
                fn(self, value)

    def force(self, value: bool) -> None:
        """Set the value without notifying listeners (testbench reset aid)."""
        self._value = bool(value)
        if self.trace:
            self.times.append(self.sim.now)
            self.values.append(self._value)

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, fn: Listener, edge: str = ANY) -> Tuple[str, Listener]:
        """Register ``fn(signal, new_value)`` on the given edge kind.

        Returns a handle for :meth:`unsubscribe`.
        """
        if edge not in (RISE, FALL, ANY):
            raise ValueError(f"unknown edge kind {edge!r}")
        handle = (edge, fn)
        self._listeners.append(handle)
        return handle

    def unsubscribe(self, handle: Tuple[str, Listener]) -> None:
        try:
            self._listeners.remove(handle)
        except ValueError:
            pass  # already removed (one-shot waiters race with cancellation)

    # ------------------------------------------------------------------
    # History helpers
    # ------------------------------------------------------------------
    def value_at(self, t: float) -> bool:
        """Value the signal held at time ``t`` (requires tracing): the
        last change at or before ``t``, the initial value before any."""
        i = bisect_right(self.times, t)
        return bool(self.values[i - 1 if i else 0])

    def edges(self, kind: str = ANY) -> List[float]:
        """Timestamps of recorded edges of the requested kind."""
        out: List[float] = []
        values = self.values
        prev = values[0]
        for time, value in zip(self.times[1:], values[1:]):
            if value != prev:
                edge = RISE if value else FALL
                if kind == ANY or kind == edge:
                    out.append(time)
            prev = value
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, value={int(self._value)})"


class AnalogProbe:
    """Recorder for a real-valued waveform with a running min / max.

    The analog solver samples its probes once per accepted integration
    step.  The max and min update regardless of whether the full waveform
    is kept, so sweeps can disable tracing.

    A probe built on its own keeps its own time column and records
    ``(t, v)`` pairs with :meth:`record`.  Probes sampled together share
    one time column, passed in as ``times``: their owner appends each
    instant once, and each probe then takes its value with
    :meth:`sample`.

    The probe is the *live, in-run* recording surface; the canonical
    trace representation — what crosses process boundaries, lands in
    the result cache, and feeds the metrics/VCD layers — is the
    columnar :class:`repro.trace.TraceSet` copied out of these buffers
    (:meth:`repro.analog.solver.AnalogSolver.trace_set`).  New code
    should read waveforms through TraceSets.
    """

    __slots__ = ("name", "trace", "times", "values", "_max", "_min")

    def __init__(self, name: str, trace: bool = True,
                 times: Optional[array] = None):
        self.name = name
        self.trace = trace
        self.times = array("d") if times is None else times
        self.values = array("d")
        self._max = float("-inf")
        self._min = float("inf")

    def record(self, t: float, v: float) -> None:
        """Append ``(t, v)`` to a probe that owns its time column."""
        if self.trace:
            self.times.append(t)
        self.sample(v)

    def sample(self, v: float) -> None:
        """Take ``v`` at the instant last appended to the time column."""
        if v > self._max:
            self._max = v
        if v < self._min:
            self._min = v
        if self.trace:
            self.values.append(v)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def maximum(self) -> float:
        return self._max

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def peak_abs(self) -> float:
        return max(abs(self._max), abs(self._min))

    def reset_stats(self) -> None:
        """Restart the max / min from the current point.

        Waveform history (if traced) is preserved; used to measure e.g.
        steady-state ripple excluding the startup transient.
        """
        self._max = float("-inf")
        self._min = float("inf")

    def value_at(self, t: float) -> float:
        """Linear interpolation of the traced waveform at time ``t``."""
        if not self.trace or not self.times:
            raise ValueError(f"probe {self.name!r} has no traced waveform")
        times, values = self.times, self.values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        i = bisect_right(times, t)
        t0, t1 = times[i - 1], times[i]
        v0, v1 = values[i - 1], values[i]
        if t1 == t0:
            return v1
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def window(self, t_start: float, t_end: float) -> Tuple[List[float], List[float]]:
        """Return the traced samples with ``t_start <= t <= t_end``."""
        ts, vs = [], []
        for t, v in zip(self.times, self.values):
            if t_start <= t <= t_end:
                ts.append(t)
                vs.append(v)
        return ts, vs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AnalogProbe({self.name!r}, n={len(self.values)})"
