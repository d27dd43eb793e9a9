"""WAIT-family A2A elements: WAIT, WAIT0, WAIT01, WAIT10, RWAIT, RWAIT0, WAIT2.

Protocol note.  The original elements expose 2-phase (transition-signalling)
handshakes for WAIT2/WAITX2 and 4-phase for the rest.  This library models
*all* elements with 4-phase (return-to-zero) req/ack interfaces; a 2-phase
element is rendered as alternating RTZ handshakes with internal phase state
(first handshake awaits the high level, the next the low level).  The
observable event ordering — which is what the controller logic depends on —
is identical, and one uniform protocol keeps the controller processes and
verification models simple.
"""

from __future__ import annotations

from ..sim.core import Simulator
from ..sim.signal import FALL, RISE, Signal
from .base import (
    DEFAULT_FORWARD_DELAY,
    DEFAULT_LATCH_WINDOW,
    DEFAULT_TAU,
    A2AElement,
)


class Wait(A2AElement):
    """WAIT: latch a non-persistent input's *high level*.

    Arm with ``req``; once the input is (or becomes) high for the latch
    window, ``ack`` rises and stays latched until ``req`` is released —
    even if the input glitches low again meanwhile.
    """

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.inp = inp
        inp.subscribe(self._on_input_edge, RISE)

    def _condition(self) -> bool:
        return self.inp.value

    def _on_input_edge(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._begin_capture()


class Wait0(A2AElement):
    """WAIT0: the symmetric element — latches the input's *low level*."""

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.inp = inp
        inp.subscribe(self._on_input_edge, FALL)

    def _condition(self) -> bool:
        return not self.inp.value

    def _on_input_edge(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._begin_capture()


class Wait01(A2AElement):
    """WAIT01: wait for a rising *edge* (not merely a high level).

    A signal that is already high when armed does **not** satisfy the
    element; it must first go low and then rise (paper Sec. III: "a signal
    can be initially low, and to generate a falling edge event it must
    first go high" — the dual applies here).
    """

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.inp = inp
        self._edge_seen = False
        inp.subscribe(self._on_input_edge, RISE)

    def _condition(self) -> bool:
        return self._edge_seen and self.inp.value

    def _on_armed(self) -> None:
        self._edge_seen = False  # only edges after arming count

    def _on_input_edge(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._edge_seen = True
            self._begin_capture()


class Wait10(A2AElement):
    """WAIT10: wait for a falling *edge* of the input."""

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.inp = inp
        self._edge_seen = False
        inp.subscribe(self._on_input_edge, FALL)

    def _condition(self) -> bool:
        return self._edge_seen and not self.inp.value

    def _on_armed(self) -> None:
        self._edge_seen = False

    def _on_input_edge(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._edge_seen = True
            self._begin_capture()


class RWait(Wait):
    """RWAIT: a WAIT whose pending request can be *cancelled*.

    Raising ``cancel`` while armed releases the output handshake without
    the condition: ``ack`` rises (so the requesting control loop always
    completes) but ``fired_by_condition`` reads False.  Used for the
    zero-crossing wait, which a timeout may abandon (paper Sec. IV).
    """

    def __init__(self, sim: Simulator, name: str, inp: Signal, trace: bool = True,
                 **kwargs):
        super().__init__(sim, name, inp, trace=trace, **kwargs)
        self.cancel = Signal(sim, f"{name}.cancel", trace=trace)
        self.fired_by_condition = False
        self._cancelled = False
        self.cancel.subscribe(self._on_cancel, RISE)

    def _on_armed(self) -> None:
        self._cancelled = False
        self.fired_by_condition = False
        super()._on_armed()

    def _on_cancel(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._cancelled = True
            self._cancel_capture()
            self._fire(self.delay)

    def _commit(self) -> None:
        if self._armed and not self.ack.value:
            self.fired_by_condition = not self._cancelled
            self.ack._apply(True)

    def _end_capture(self) -> None:
        if self._cancelled:
            return
        super()._end_capture()


class RWait0(RWait):
    """RWAIT0: cancellable wait for the *low* level."""

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, inp, **kwargs)
        # Re-wire the trigger edge: low level, falling edge.
        inp.subscribe(self._on_fall, FALL)

    def _condition(self) -> bool:
        return not self.inp.value

    def _on_fall(self, _sig: Signal, _value: bool) -> None:
        if self._armed and not self.ack.value:
            self._begin_capture()

    def _on_input_edge(self, _sig: Signal, _value: bool) -> None:
        pass  # rising edges are irrelevant for the low-level wait


class Wait2(A2AElement):
    """WAIT2: WAIT then WAIT0, alternating on successive handshakes.

    Odd-numbered requests complete when the input is high, even-numbered
    when it is low — the RTZ rendering of the original 2-phase element.
    The phase only advances when a handshake completes, so a cancelled
    (withdrawn) request retries the same phase.
    """

    def __init__(self, sim: Simulator, name: str, inp: Signal, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.inp = inp
        self._want_high = True
        inp.subscribe(self._on_input_edge)

    def _condition(self) -> bool:
        return self.inp.value == self._want_high

    def _on_input_edge(self, _sig: Signal, value: bool) -> None:
        if self._armed and not self.ack.value and value == self._want_high:
            self._begin_capture()

    def _commit(self) -> None:
        if self._armed and not self.ack.value:
            self._want_high = not self._want_high  # phase advances on completion
            self.ack._apply(True)

    @property
    def awaiting(self) -> str:
        """Which input level the *next* handshake will wait for."""
        return "high" if self._want_high else "low"
