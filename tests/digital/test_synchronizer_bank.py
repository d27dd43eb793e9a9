"""SynchronizerBank against per-input reference pairs of plain flops.

The bank clocks only the pairs it cannot prove settled, from one
rising-edge handler.  Beside it, a second simulator with the same seed
runs the textbook circuit: per input, two standalone ``DFlipFlop`` s
subscribed to the clock and to their D inputs.  Both are driven by the
same seeded random input schedule, which includes

- glitches inside ff1's setup window (the metastable path, with its
  RNG draws),
- input edges landing exactly on clock instants, both before the edge
  (scheduled earlier) and after it (scheduled from inside the cycle),
- reads of ``settled`` between edges.

Every observable must agree: q histories of both flops, metastable
counts, in-flight settles, the RNG state and the delivered event count.
"""

import random

import pytest

from repro.control import SyncMultiphaseController
from repro.digital import Clock, DFlipFlop, SynchronizerBank
from repro.digital.synchronizer import T_CLK_Q
from repro.sim import NS, Signal, Simulator

PERIOD = 3 * NS
N_INPUTS = 5
N_CYCLES = 300
T_SETUP = 0.05 * NS   # DFlipFlop's default setup window


def _rise_times(n_cycles):
    """The clock's exact rising-edge instants (its own float chain)."""
    sim = Simulator()
    clk = Clock(sim, "clk", PERIOD, phase=PERIOD / 2, trace=True)
    sim.run_until(n_cycles * PERIOD)
    return clk.signal.edges("rise")


def _schedule(seed, rises):
    """Seeded input plan: ``(kind, input, time)`` tuples.

    ``at``: toggle at ``time``, scheduled up front, so it runs before an
    edge at the same instant (bar the first edge, scheduled earlier
    still).  ``after``: toggle exactly on the clock instant
    ``time``, scheduled from inside the preceding cycle, so it lands
    after that rising edge.  ``probe``: read ``settled`` at ``time``.
    """
    rng = random.Random(seed)
    plan = []
    t_end = rises[-1]
    for _ in range(40 * N_INPUTS):
        plan.append(("at", rng.randrange(N_INPUTS), rng.uniform(0, t_end)))
    for _ in range(15 * N_INPUTS):
        # a glitch closing inside the setup window before an edge, read
        # between its end and the edge (stable pipeline, open window)
        k = rng.randrange(N_INPUTS)
        edge = rises[rng.randrange(1, len(rises))]
        t0 = edge - rng.uniform(0, 2 * T_SETUP)
        t1 = t0 + rng.uniform(0, T_SETUP)
        plan.append(("at", k, t0))
        plan.append(("at", k, t1))
        plan.append(("probe", None, (t1 + edge) / 2))
    for _ in range(10 * N_INPUTS):
        plan.append(("at", rng.randrange(N_INPUTS),
                     rises[rng.randrange(len(rises))]))
        plan.append(("after", rng.randrange(N_INPUTS),
                     rises[rng.randrange(1, len(rises))]))
    for _ in range(4 * N_CYCLES):
        plan.append(("probe", None, rng.uniform(0, t_end)))
    return plan


class _Rig:
    """One simulator, clock and input set, plus the synchronizers under
    test (``bank=True``) or the reference flop pairs."""

    def __init__(self, seed, plan, bank):
        self.sim = sim = Simulator(seed=seed)
        self.clk = Clock(sim, "clk", PERIOD, phase=PERIOD / 2)
        self.inputs = [Signal(sim, f"in{k}") for k in range(N_INPUTS)]
        if bank:
            self.bank = SynchronizerBank(sim, "sync", self.clk.signal,
                                         self.inputs)
            pairs = self.bank.synchronizers.values()
            self.flops = [(p.ff1, p.ff2) for p in pairs]
        else:
            self.bank = None
            self.flops = []
            for d in self.inputs:
                ff1 = DFlipFlop(sim, f"sync.{d.name}.ff1", d, self.clk.signal,
                                t_clk_q=T_CLK_Q, trace=False)
                ff2 = DFlipFlop(sim, f"sync.{d.name}.ff2", ff1.q,
                                self.clk.signal, t_clk_q=T_CLK_Q,
                                t_setup=0.0, tau=0.0)
                self.flops.append((ff1, ff2))
        # q histories of both flops (ff1 keeps no trace of its own)
        self.q_history = []
        for k, (ff1, ff2) in enumerate(self.flops):
            for stage, ff in ((1, ff1), (2, ff2)):
                ff.q.subscribe(lambda _s, v, key=(k, stage):
                               self.q_history.append((sim.now, key, v)))
        self.probes = []
        for kind, k, t in plan:
            if kind == "at":
                sim.schedule_at(t, lambda k=k: self._toggle(k))
            elif kind == "after":
                sim.schedule_at(t - PERIOD / 4,
                                lambda k=k, t=t: sim.schedule_at(
                                    t, lambda: self._toggle(k)))
            else:
                sim.schedule_at(t, self._probe)

    def _toggle(self, k):
        sig = self.inputs[k]
        sig._apply(not sig._value)

    def settled(self):
        if self.bank is not None:
            return self.bank.settled()
        return all(ff1.inflight == 0 and ff2.inflight == 0
                   and ff1.q._value == ff2.q._value == ff1.d._value
                   for ff1, ff2 in self.flops)

    def _probe(self):
        self.probes.append((self.sim.now, self.settled(),
                            [(ff1.inflight, ff2.inflight)
                             for ff1, ff2 in self.flops]))

    def observables(self):
        return {
            "q_history": self.q_history,
            "outputs": [(ff2.q.times, ff2.q.values)
                        for _, ff2 in self.flops],
            "metastable": [ff1.metastable_events for ff1, _ in self.flops],
            "inflight": [(ff1.inflight, ff2.inflight)
                         for ff1, ff2 in self.flops],
            "probes": self.probes,
            "rng": self.sim.rng.getstate(),
            "events_delivered": self.sim.events_delivered,
        }


@pytest.mark.parametrize("seed", range(6))
def test_bank_matches_reference_flop_pairs(seed):
    rises = _rise_times(N_CYCLES)
    plan = _schedule(seed, rises)
    got, want = _Rig(seed, plan, bank=True), _Rig(seed, plan, bank=False)
    # stop mid-cycle and on an edge instant: in-flight settles compare too
    for t_stop in (rises[N_CYCLES // 2] + T_CLK_Q / 2, rises[-1]):
        got.sim.run_until(t_stop)
        want.sim.run_until(t_stop)
        obs_got, obs_want = got.observables(), want.observables()
        for key in obs_want:
            assert obs_got[key] == obs_want[key], key
    # the schedule really exercised the metastable path and both answers
    # of settled
    assert sum(obs_got["metastable"]) > 0
    assert {s for _, s, _ in obs_got["probes"]} == {True, False}
    assert got.sim.events_delivered > 2 * N_CYCLES


def test_bank_visits_only_unsettled_pairs():
    """A quiet bank stops sampling: edges on stable inputs call no flop."""
    sim = Simulator()
    clk = Clock(sim, "clk", PERIOD)
    a, b = Signal(sim, "a"), Signal(sim, "b")
    bank = SynchronizerBank(sim, "sync", clk.signal, [a, b])
    a.set(True, 1 * NS)
    sim.run_until(10 * PERIOD)
    assert bank.output("a").value and not bank.output("b").value
    assert bank._unsettled == [] and bank.settled()
    b.set(True, 0.5 * NS)
    sim.run_until(sim.now + 0.6 * NS)
    assert bank._unsettled == [1] and not bank.settled()


def test_sync_controller_clock_has_one_listener(controller_rig):
    rig = controller_rig(controller="sync", n=2, freq=333e6, seed=0)
    ctrl = rig.ctrl
    assert isinstance(ctrl, SyncMultiphaseController)
    assert len(ctrl.sync_clk.signal._listeners) == 1
    assert ctrl.sync_clk.signal._listeners[0][1].__self__ is ctrl._bank
    # the synchronized signals keep their names
    names = [sig.name for sig in [ctrl._hl, ctrl._uv, ctrl._ov]
             + ctrl._oc + ctrl._zc]
    assert names == ["sync_hl.ff2", "sync_uv.ff2", "sync_ov.ff2",
                     "sync_oc0.ff2", "sync_oc1.ff2",
                     "sync_zc0.ff2", "sync_zc1.ff2"]
