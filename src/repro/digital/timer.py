"""Handshake timers (the paper's TOKEN/PMIN/NMIN/PEXT timers).

A :class:`HandshakeTimer` has a request/acknowledge interface: raise
``req``; after the programmed duration ``ack`` rises; drop ``req`` and
``ack`` follows down (return-to-zero handshake).  The asynchronous phase
controller uses these to bound minimum transistor ON times and token dwell
without any clock.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Event, Simulator
from ..sim.signal import Signal
from ..sim.units import NS


class HandshakeTimer:
    """req/ack timer: ``ack`` rises ``duration`` after ``req`` rises."""

    def __init__(self, sim: Simulator, name: str, duration: float,
                 ack_fall_delay: float = 0.1 * NS, trace: bool = True):
        if duration < 0:
            raise ValueError("timer duration cannot be negative")
        self.sim = sim
        self.name = name
        self.duration = duration
        self.ack_fall_delay = ack_fall_delay
        self.req = Signal(sim, f"{name}.req", trace=trace)
        self.ack = Signal(sim, f"{name}.ack", trace=trace)
        self._pending: Optional[Event] = None
        self.req.subscribe(self._on_req)

    def _on_req(self, _sig: Signal, value: bool) -> None:
        if value:
            self._pending = self.sim.schedule(self.duration, self._expire)
        else:
            if self._pending is not None:
                self._pending.cancel()
                self._pending = None
            if self.ack.value:
                self.sim.schedule(self.ack_fall_delay,
                                  lambda: self.ack._apply(False))

    def _expire(self) -> None:
        self._pending = None
        self.ack._apply(True)

    @property
    def running(self) -> bool:
        return self._pending is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HandshakeTimer({self.name!r}, {self.duration!r}s)"

