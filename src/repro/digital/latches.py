"""Sequential primitives: SR latch and D flip-flop.

The D flip-flop models setup-time violation explicitly: if D changed within
the setup window before the sampling clock edge, the captured value is
*random* (drawn from the simulator RNG) and the flop may take extra time to
resolve — the metastability mechanism that motivates the paper's argument
against polling asynchronous inputs with a clock.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator
from ..sim.signal import RISE, Signal
from ..sim.units import NS
from .gates import DEFAULT_GATE_DELAY


class SRLatch:
    """Set/reset latch (set dominates when both asserted, configurable)."""

    def __init__(self, sim: Simulator, name: str, s: Signal, r: Signal,
                 init: bool = False, delay: float = DEFAULT_GATE_DELAY,
                 set_dominates: bool = True, trace: bool = True):
        self.sim = sim
        self.name = name
        self.s = s
        self.r = r
        self.delay = delay
        self.set_dominates = set_dominates
        self.q = Signal(sim, name, init=init, trace=trace)
        s.subscribe(self._update)
        r.subscribe(self._update)

    def _update(self, _sig: Signal, _value: bool) -> None:
        s, r = self.s.value, self.r.value
        if s and r:
            new = self.set_dominates
        elif s:
            new = True
        elif r:
            new = False
        else:
            return  # hold
        if new != self.q.value:
            self.sim.schedule(self.delay, lambda v=new: self.q._apply(v))


class DFlipFlop:
    """Rising-edge D flip-flop with a metastability window.

    Parameters
    ----------
    t_setup:
        If D last changed less than ``t_setup`` before the clock edge, the
        sample is unreliable: the captured value is random and the
        clock-to-Q delay is extended by an exponentially-distributed
        resolution time with mean ``tau``.
    tau:
        Metastability resolution time constant.
    """

    def __init__(self, sim: Simulator, name: str, d: Signal, clk: Signal,
                 init: bool = False, t_clk_q: float = DEFAULT_GATE_DELAY,
                 t_setup: float = 0.05 * NS, tau: float = 0.02 * NS,
                 trace: bool = True):
        self.sim = sim
        self.name = name
        self.d = d
        self.clk = clk
        self.t_clk_q = t_clk_q
        self.t_setup = t_setup
        self.tau = tau
        self.q = Signal(sim, name, init=init, trace=trace)
        self._last_d_change: float = -1.0
        #: number of setup violations observed (for reliability reporting)
        self.metastable_events = 0
        #: captured samples whose clk->Q propagation has not applied yet
        #: (clock gating refuses to freeze a flop mid-propagation)
        self.inflight = 0
        d.subscribe(self._on_d)
        clk.subscribe(self._on_clk, RISE)

    def _on_d(self, _sig: Signal, _value: bool) -> None:
        self._last_d_change = self.sim.now

    def _on_clk(self, _sig: Signal, _value: bool) -> None:
        in_window = (self._last_d_change >= 0 and
                     self.sim.now - self._last_d_change < self.t_setup)
        if in_window:
            self.metastable_events += 1
            captured = self.sim.rng.random() < 0.5
            resolution = self.sim.rng.expovariate(1.0 / self.tau) if self.tau > 0 else 0.0
            delay = self.t_clk_q + resolution
        else:
            captured = self.d._value
            if captured == self.q._value and not self.inflight:
                # the settle would re-apply Q's own value: no edge, no
                # history, no RNG draw.  Only exact with nothing in flight
                # (a pending metastable settle may still move Q).  It also
                # leaves `inflight` at 0 for the t_clk_q a clean settle used
                # to be in flight; see `TwoFlopSynchronizer.settled` for
                # why gating does not notice.
                return
            delay = self.t_clk_q
        self.inflight += 1
        self.sim.schedule(delay, lambda v=captured: self._settle(v))

    def _settle(self, value: bool) -> None:
        self.inflight -= 1
        self.q._apply(value)
