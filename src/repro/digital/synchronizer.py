"""Synchronizers: bringing asynchronous sensor outputs into a clock domain.

The synchronous controller cannot look at a comparator output directly —
it would violate the flop's setup window and go metastable.  The standard
remedy (Kinniment [15] in the paper) is the 2-flop synchronizer, which
costs up to 2 clock periods of input latency and still has a small failure
probability per crossing.  This latency is the synchronous design's
fundamental handicap that Table I quantifies.
"""

from __future__ import annotations

from ..sim.core import Simulator
from ..sim.signal import Signal
from .gates import DEFAULT_GATE_DELAY
from .latches import DFlipFlop


class TwoFlopSynchronizer:
    """Classic 2-flop brute-force synchronizer.

    The first flop may capture a metastable/random value on a close input
    transition; the second flop re-times it, making the output clean with
    high probability.  Failure statistics are exposed via
    ``metastable_events`` (first-flop setup violations).
    """

    def __init__(self, sim: Simulator, name: str, data: Signal, clk: Signal,
                 init: bool = False, trace: bool = True):
        self.sim = sim
        self.name = name
        self._ff1 = DFlipFlop(sim, f"{name}.ff1", data, clk, init=init,
                              trace=False)
        # The second flop samples a signal that only changes right after a
        # clock edge, so it is safe by construction (tau=0 disables its
        # metastability model).
        self._ff2 = DFlipFlop(sim, f"{name}.ff2", self._ff1.q, clk, init=init,
                              t_setup=0.0, tau=0.0, trace=trace)

    @property
    def output(self) -> Signal:
        return self._ff2.q

    @property
    def metastable_events(self) -> int:
        return self._ff1.metastable_events

    @property
    def settled(self) -> bool:
        """True when clocking this synchronizer is provably a no-op: the
        whole pipeline already equals the (stable) input and no captured
        sample is still propagating to a Q output.  Clock gating only
        suspends the clock when every synchronizer reports settled.

        A flop whose clean sample equals Q schedules no settle, so
        `inflight` stays 0 where a no-op settle used to be pending for
        t_clk_q after the sync edge.  The FSM edge that reads this comes
        half a period after the sync edge, so gating decisions are the
        same only while the sync flops' t_clk_q < period / 2 (about
        5 GHz at the default 0.1 ns).  A faster FSM clock would see
        True here where it used to see False."""
        ff1, ff2 = self._ff1, self._ff2
        return (ff1.inflight == 0 and ff2.inflight == 0
                and ff1.q._value == ff2.q._value == ff1.d._value)


class SynchronizerBank:
    """A set of 2-flop synchronizers sharing one clock — the shaded
    components at the input of the synchronous controller in Fig. 5a."""

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 inputs, trace: bool = True):
        self.synchronizers = {}
        for sig in inputs:
            self.synchronizers[sig.name] = TwoFlopSynchronizer(
                sim, f"{name}.{sig.name}", sig, clk, trace=trace)

    def output(self, input_name: str) -> Signal:
        return self.synchronizers[input_name].output

    def total_metastable_events(self) -> int:
        return sum(s.metastable_events for s in self.synchronizers.values())
