"""Synchronizers: bringing asynchronous sensor outputs into a clock domain.

The synchronous controller cannot look at a comparator output directly —
it would violate the flop's setup window and go metastable.  The standard
remedy (Kinniment [15] in the paper) is the 2-flop synchronizer, which
costs up to 2 clock periods of input latency and still has a small failure
probability per crossing.  This latency is the synchronous design's
fundamental handicap that Table I quantifies.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List

from ..sim.core import Simulator
from ..sim.signal import RISE, Signal
from .latches import DEFAULT_GATE_DELAY, DFlipFlop

#: clock-to-Q delay of both flops of every synchronizer
T_CLK_Q = DEFAULT_GATE_DELAY


class TwoFlopSynchronizer:
    """Classic 2-flop brute-force synchronizer, one input of a
    :class:`SynchronizerBank` (built by :meth:`SynchronizerBank.add`).

    The first flop may capture a metastable/random value on a close input
    transition; the second flop re-times it, making the output clean with
    high probability.  Failure statistics are exposed via
    ``metastable_events`` (first-flop setup violations).
    """

    def __init__(self, bank: "SynchronizerBank", index: int, name: str,
                 data: Signal, trace: bool):
        self._bank = bank
        self.index = index
        sim = bank.sim
        self.ff1 = DFlipFlop(sim, f"{name}.ff1", data, None, t_clk_q=T_CLK_Q,
                             trace=False)
        # The second flop samples a signal that only changes right after a
        # clock edge, so it is safe by construction (t_setup=0 means it
        # never goes metastable and needs no D-change time).
        self.ff2 = DFlipFlop(sim, f"{name}.ff2", self.ff1.q, None,
                             t_clk_q=T_CLK_Q, t_setup=0.0, tau=0.0,
                             trace=trace)
        data.subscribe(self._on_input)

    @property
    def output(self) -> Signal:
        return self.ff2.q

    @property
    def metastable_events(self) -> int:
        return self.ff1.metastable_events

    def _on_input(self, _sig: Signal, _value: bool) -> None:
        self.ff1._last_d_change = self._bank.sim.now
        unsettled = self._bank._unsettled
        if self.index not in unsettled:
            insort(unsettled, self.index)

    def _stable(self) -> bool:
        """No sample in flight and the pipeline equals the input."""
        ff1, ff2 = self.ff1, self.ff2
        q = ff1.q._value
        return (not ff1.inflight and not ff2.inflight
                and ff1.d._value == q == ff2.q._value)

    def _in_setup_window(self, now: float) -> bool:
        """A sample taken now would violate ff1's setup time."""
        last = self.ff1._last_d_change
        return last >= 0 and now - last < self.ff1.t_setup


class SynchronizerBank:
    """A set of 2-flop synchronizers sharing one clock — the shaded
    components at the input of the synchronous controller in Fig. 5a.

    The bank subscribes one rising-edge handler to the clock.  It keeps
    the pairs that are not provably settled in construction order; a
    pair is settled when no sample is in flight, ``d == q1 == q2`` and
    ff1's input has not changed within its ``t_setup`` window.  Clocking
    a settled pair changes nothing (no settle, no RNG draw), so an edge
    visits only the unsettled pairs, ff1 before ff2, through the flops'
    own sampling code, and drops the pairs it finds settled.  An input
    change marks its pair unsettled again.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 inputs: Iterable[Signal] = (), trace: bool = True):
        self.sim = sim
        self.trace = trace
        self._pairs: List[TwoFlopSynchronizer] = []
        #: indices of the pairs that are not provably settled, ascending
        self._unsettled: List[int] = []
        self.synchronizers: Dict[str, TwoFlopSynchronizer] = {}
        clk.subscribe(self._on_clk, RISE)
        for sig in inputs:
            self.synchronizers[sig.name] = self.add(f"{name}.{sig.name}", sig)

    def add(self, name: str, data: Signal) -> TwoFlopSynchronizer:
        """Synchronize ``data`` through a new pair named ``name`` (its
        flops are ``<name>.ff1`` and ``<name>.ff2``, the output)."""
        pair = TwoFlopSynchronizer(self, len(self._pairs), name, data,
                                   self.trace)
        self._pairs.append(pair)
        # unproven until the first edge or settled() looks at it
        self._unsettled.append(pair.index)
        return pair

    def _on_clk(self, sig: Signal, value: bool) -> None:
        now = self.sim.now
        pairs = self._pairs
        keep = []
        for i in self._unsettled:
            pair = pairs[i]
            if pair._stable() and not pair._in_setup_window(now):
                continue
            pair.ff1._on_clk(sig, value)
            pair.ff2._on_clk(sig, value)
            keep.append(i)
        self._unsettled = keep

    def settled(self) -> bool:
        """True when clocking the bank cannot move any output: every pair
        has no captured sample in flight and ``d == q1 == q2``.  Clock
        gating suspends the clocks only while this holds.

        Only the unsettled pairs are checked; when all of them are stable,
        those past their setup window are dropped from the set.

        A clean sample equal to Q schedules no settle (see
        ``DFlipFlop._on_clk``), so ``inflight`` reads 0 for the t_clk_q
        a no-op settle would have been in flight.  The FSM edge that asks
        comes half a period after the sync edge, and ``SystemConfig``
        rejects sync FSM clocks whose half period is not above
        :data:`T_CLK_Q`, so such a settle would have applied by then: the
        answer is the one a flop that always schedules would give."""
        pairs = self._pairs
        unsettled = self._unsettled
        for i in unsettled:
            if not pairs[i]._stable():
                return False
        if unsettled:
            now = self.sim.now
            self._unsettled = [i for i in unsettled
                               if pairs[i]._in_setup_window(now)]
        return True

    def output(self, input_name: str) -> Signal:
        return self.synchronizers[input_name].output

    def total_metastable_events(self) -> int:
        return sum(p.metastable_events for p in self._pairs)
