"""Synchronous multiphase buck controller (paper Fig. 5a).

Architecture:

- ``fsm_clk`` — the fast clock (100 MHz … 1 GHz in Table I) clocking the
  per-phase FSMs;
- 2-flop synchronizers on every sensor input (one
  :class:`~repro.digital.synchronizer.SynchronizerBank`), clocked on
  the *opposite* clock phase so the FSM reads freshly-settled values —
  this is the paper's footnote trick that caps the reaction latency at 2.5 clock
  periods (2 for synchronisation + 0.5 for the FSM);
- a slow round-robin :class:`~repro.digital.clock.PhaseActivator`
  producing the non-overlapping phase activation pulses;
- high-load (HL) overrides the activator and enables all phases at once.

The reaction latency is *emergent*: sensors change asynchronously, the
synchronizers quantise them onto clock edges, and the Mealy-style FSM acts
on the next active edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..digital.clock import Clock, PhaseActivator
from ..digital.synchronizer import SynchronizerBank
from ..sim.core import Simulator
from ..sim.signal import ANY, RISE, Signal
from ..sim.units import NS, period_of
from .params import BuckControlParams

# FSM states
IDLE = "idle"
GN_OFF = "gn_off"      # waiting for NMOS to release before charging
CHARGE = "charge"      # PMOS on, waiting for OC (and PMIN)
GP_OFF = "gp_off"      # waiting for PMOS to release before rectifying
DISCHARGE = "discharge"  # NMOS on, waiting for ZC (and NMIN) or re-activation


@dataclass
class _PhaseState:
    phase: str = IDLE
    ov_mode: bool = False
    pmin_deadline: float = 0.0
    nmin_deadline: float = 0.0


class SyncMultiphaseController:
    """Clocked round-robin controller for an N-phase buck.

    Parameters
    ----------
    sensors:
        Sensor surface (see :mod:`repro.control.params`).
    gates:
        Gate-driver bank: ``gp``/``gn`` request signals, ``gp_ack``/
        ``gn_ack`` conduction acknowledgements.
    fsm_frequency:
        The fast clock frequency in Hz.
    gating:
        ``"auto"`` suspends both clocks across provably idle stretches
        (see :meth:`_maybe_gate` for the observability argument),
        ``"off"`` delivers every edge through the event loop.
    crossing_bound:
        Optional callable returning a lower bound, in seconds from now,
        on the earliest possible comparator flip (from armed levels and
        analytic ODE slopes).  Used only to decide whether gating is
        *worth entering* — raw sensor edges wake the controller
        regardless, so a stale bound cannot change results.
    """

    def __init__(self, sim: Simulator, sensors, gates, n_phases: int,
                 fsm_frequency: float,
                 params: Optional[BuckControlParams] = None,
                 t_clk_q: float = 0.3 * NS, trace: bool = True,
                 gating: str = "off",
                 crossing_bound: Optional[Callable[[], float]] = None):
        if n_phases < 1:
            raise ValueError("need at least one phase")
        self.sim = sim
        self.sensors = sensors
        self.gates = gates
        self.n_phases = n_phases
        self.params = params or BuckControlParams()
        self.period = period_of(fsm_frequency)
        self.t_clk_q = t_clk_q
        self.crossing_bound = crossing_bound

        self.fsm_clk = Clock(sim, "fsm_clk", self.period, trace=False)
        # Synchronizer clock on the opposite phase (the 0.5-cycle trick).
        self.sync_clk = Clock(sim, "sync_clk", self.period,
                              phase=self.period / 2, trace=False)
        self.activator = PhaseActivator(sim, "activator", n_phases,
                                        self.params.phase_dwell, trace=trace)

        # One bank clocks all 3 + 2P synchronizers from one sync-edge
        # handler; the FSM reads their outputs, bound once.
        self._bank = bank = SynchronizerBank(sim, "sync",
                                             self.sync_clk.signal,
                                             trace=trace)
        self._hl = bank.add("sync_hl", sensors.hl.output).output
        self._uv = bank.add("sync_uv", sensors.uv.output).output
        self._ov = bank.add("sync_ov", sensors.ov.output).output
        self._oc, self._zc = [], []
        for k in range(n_phases):
            self._oc.append(bank.add(f"sync_oc{k}",
                                     sensors.oc[k].output).output)
            self._zc.append(bank.add(f"sync_zc{k}",
                                     sensors.zc[k].output).output)
        self._act = self.activator.act

        self._state = [_PhaseState() for _ in range(n_phases)]
        self._uv_fresh = False
        self._uv.subscribe(self._on_uv_rise, RISE)
        self.fsm_clk.signal.subscribe(self._on_clk, RISE)
        #: count of charging cycles started, per phase (observability)
        self.cycles_started = [0] * n_phases

        # --- clock gating (idle-edge fast-forward) --------------------
        self._gating = gating == "auto"
        self._gated = False
        self._acted = False
        self._act_wakes = False
        self._wake_ev = None
        #: gating entries (observability / tests)
        self.gate_count = 0
        # entering a gate must beat its own bookkeeping overhead, so the
        # provably idle horizon has to clear a couple of periods
        self._gate_horizon = 2.0 * self.period
        if self._gating:
            # Raw (pre-synchronizer) sensor edges are the only external
            # inputs that can change what the FSM observes; any edge on
            # them ends the gate.  Activation pulses only matter while a
            # demand flag (synced uv/ov) is high — see _maybe_gate.
            for comp in self._raw_comparators():
                comp.output.subscribe(self._on_wake_edge, ANY)
            for sig in self.activator.act:
                sig.subscribe(self._on_act_edge, RISE)

    def _raw_comparators(self):
        sensors = self.sensors
        comps = [sensors.hl, sensors.uv, sensors.ov]
        comps += list(sensors.oc) + list(sensors.zc)
        return comps

    # ------------------------------------------------------------------
    def _on_uv_rise(self, _sig: Signal, _value: bool) -> None:
        self._uv_fresh = True  # next charging cycle gets the PEXT extension

    def _activated(self, k: int) -> bool:
        return self._act[k]._value or self._hl._value

    def _on_clk(self, _sig: Signal, _value: bool) -> None:
        self._acted = False
        for k in range(self.n_phases):
            self._step_phase(k)
        if not self._gating or not self._bank.settled():
            return
        if not self._acted:
            self._maybe_gate()
        # Even while the FSM itself stays busy (deadline holds, ack
        # handshakes, cycle sequencing), a settled synchronizer bank is
        # re-sampling stable data: those sync-clock edges are no-ops
        # until the next raw comparator edge, which resumes the clock.
        if not self._gated and not self.sync_clk.suspended:
            self.sync_clk.suspend()

    # ------------------------------------------------------------------
    def _drive(self, sig: Signal, value: bool) -> None:
        self._acted = True
        sig.set(value, self.t_clk_q)

    def _step_phase(self, k: int) -> None:
        st = self._state[k]
        now = self.sim.now
        uv, ov = self._uv._value, self._ov._value
        oc, zc = self._oc[k]._value, self._zc[k]._value
        gates = self.gates

        if st.phase == IDLE:
            # never start a charge while the phase is still over-current
            if self._activated(k) and (uv or ov) and not oc:
                st.ov_mode = ov and not uv
                self.sensors.set_ov_mode(k, st.ov_mode)
                if not gates.gn_ack[k].value:
                    self._begin_charge(k, st)
                else:
                    self._drive(gates.gn[k], False)
                    st.phase = GN_OFF

        elif st.phase == GN_OFF:
            if not gates.gn_ack[k].value:
                self._begin_charge(k, st)

        elif st.phase == CHARGE:
            if oc and now >= st.pmin_deadline:
                self._drive(gates.gp[k], False)
                st.phase = GP_OFF

        elif st.phase == GP_OFF:
            if not gates.gp_ack[k].value:
                self._drive(gates.gn[k], True)
                st.nmin_deadline = now + self.params.nmin
                st.phase = DISCHARGE

        elif st.phase == DISCHARGE:
            if now >= st.nmin_deadline and self._discharge_ends(k, st):
                self._drive(gates.gn[k], False)
                if zc:
                    self._end_cycle(k, st)
                else:
                    # back-to-back cycle: demand persists, current decayed
                    st.phase = GN_OFF

    def _discharge_ends(self, k: int, st: _PhaseState) -> bool:
        """Whether phase ``k``'s synced inputs end its DISCHARGE once NMIN
        has passed: zero crossing, or a back-to-back cycle (activated,
        demand persists, not over-current).  The FSM acts on it and the
        gating entry schedules the NMIN wake for it."""
        return self._zc[k]._value or (
            self._activated(k)
            and (self._uv._value or (st.ov_mode and self._ov._value))
            and not self._oc[k]._value)

    def _begin_charge(self, k: int, st: _PhaseState) -> None:
        hold = self.params.pmin
        if self._uv_fresh and not st.ov_mode:
            hold += self.params.pext
            self._uv_fresh = False
        st.pmin_deadline = self.sim.now + hold
        self._drive(self.gates.gp[k], True)
        self.cycles_started[k] += 1
        st.phase = CHARGE

    def _end_cycle(self, k: int, st: _PhaseState) -> None:
        if st.ov_mode:
            self.sensors.set_ov_mode(k, False)
            st.ov_mode = False
        st.phase = IDLE

    # ------------------------------------------------------------------
    # Clock gating: skip provably idle clock edges in one jump
    # ------------------------------------------------------------------
    def _maybe_gate(self) -> None:
        """Suspend both clocks when clocking them is provably unobservable.

        The FSM sweep that just ran took no action, so a future edge can
        only act after one of its inputs changes.  Those inputs are:

        - synchronizer outputs — frozen while the sync clock is gated,
          and (because every synchronizer is *settled*: pipeline equals
          the raw input, nothing mid-flight) they can only change after
          a raw comparator edge, which resumes the clocks;
        - activation pulses — only consulted when a demand flag (synced
          ``uv``/``ov``) is high; when both are low at gate time they
          stay low until a raw edge (wake), so ``act`` rises are ignored
          unless ``_act_wakes`` was set;
        - gate-driver acks — read only in states excluded from gating
          (GN_OFF / GP_OFF) or in the same sweep as a sensor-enabled
          action, never as an action trigger on their own;
        - the PMIN / NMIN deadlines — when the current inputs would act
          once a deadline passes, a timer wake is scheduled for it.

        Skipped edges are therefore no-op sweeps: flops re-sample stable
        data (no RNG draws, no output changes), the FSM re-evaluates
        unchanged inputs.  Removing them is exact, not approximate.  The
        analytic crossing bound only gates *entry* (is the idle stretch
        long enough to be worth it) — a wrong bound costs speed, never
        correctness.

        Caller guarantees every synchronizer is settled.
        """
        now = self.sim.now
        wake_at = math.inf
        for k in range(self.n_phases):
            st = self._state[k]
            phase = st.phase
            if phase == GN_OFF or phase == GP_OFF:
                return  # ack handshakes resolve within a couple of periods
            if phase == CHARGE:
                if self._oc[k]._value and now < st.pmin_deadline:
                    wake_at = min(wake_at, st.pmin_deadline)
            elif phase == DISCHARGE and now < st.nmin_deadline \
                    and self._discharge_ends(k, st):
                wake_at = min(wake_at, st.nmin_deadline)
        horizon = wake_at - now
        if self.crossing_bound is not None:
            horizon = min(horizon, self.crossing_bound())
        if horizon <= self._gate_horizon:
            return
        self._gated = True
        self.gate_count += 1
        self._act_wakes = self._uv._value or self._ov._value
        self.fsm_clk.suspend()
        self.sync_clk.suspend()
        if wake_at < math.inf:
            self._wake_ev = self.sim.schedule_at(wake_at, self._on_wake_timer)

    def _on_wake_edge(self, _sig: Signal, _value: bool) -> None:
        if self._gated:
            self._resume()
        elif self.sync_clk.suspended:
            # sync-only suspension: re-arm in time to sample this change
            self.sync_clk.fast_forward(self.sim.now, self.sim.current)

    def _on_act_edge(self, _sig: Signal, _value: bool) -> None:
        if self._gated and self._act_wakes:
            self._resume()

    def _on_wake_timer(self) -> None:
        self._wake_ev = None
        self._resume()

    def _resume(self) -> None:
        self._gated = False
        if self._wake_ev is not None:
            self._wake_ev.cancel()
            self._wake_ev = None
        now, cause = self.sim.now, self.sim.current
        # At shared grid instants the ungated clocks fire the sync edge
        # first.  A re-armed edge goes ahead of the same-instant edges
        # born with it, so the sync clock is re-armed last.
        self.fsm_clk.fast_forward(now, cause)
        self.sync_clk.fast_forward(now, cause)

    @property
    def clock_edges_simulated(self) -> int:
        return self.fsm_clk.edges_simulated + self.sync_clk.edges_simulated

    @property
    def clock_edges_skipped(self) -> int:
        return self.fsm_clk.edges_skipped + self.sync_clk.edges_skipped

    # ------------------------------------------------------------------
    def metastable_events(self) -> int:
        """Total synchronizer first-flop setup violations observed."""
        return self._bank.total_metastable_events()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SyncMultiphaseController(n={self.n_phases}, "
                f"f={1.0 / self.period / 1e6:.0f}MHz)")
