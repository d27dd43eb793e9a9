"""Analog solver driven by the discrete-event kernel.

The solver is a recurring kernel event: every micro-step it advances the
power stage ODE, records the probes, and samples the comparators (which
schedule their own output edges with sub-step crossing interpolation).
Digital events — gate-driver commutations — fall between ticks and take
effect on the next tick, mirroring the analog/digital handshake of an
AMS simulator.

Two stepping modes (see :mod:`repro.analog.stepping`):

``fixed``
    One step every ``dt`` (default 1 ns; the Fig. 6 waveform runs use
    0.5 ns so that the sub-nanosecond reaction-latency differences of
    Table I resolve cleanly in the peak-current results).  Each tick is
    one pass: the stage's single-method RK2 step, the probes recorded
    inline, then the sensor bank's inline comparator sweep, where only a
    comparator that flips schedules an event.

``adaptive``
    The embedded RK2(1) error estimate sizes each step within
    ``[dt_min, dt_max]``, and the step end *snaps* onto gate-driver
    commutations, load-profile breakpoints, and predicted comparator
    crossings, so the events that set the paper's reaction-latency
    semantics never fall mid-step.  Each step is planned by a separate
    kernel event at priority +1 — after every same-instant digital event
    has fired — so the ODE slopes it extrapolates always reflect the
    post-commutation conduction state; the step commit itself runs at
    priority -1, before same-instant events, so a step snapped onto a
    commutation integrates up to it with the pre-flip state.

    Crossing prediction targets the step end half a *guard* past the
    predicted crossing, where the guard is ``min(dt, sensor delay)``:
    the crossing then falls inside a step no larger than the sensor
    delay, which keeps the comparator's interpolated edge time exact
    (``crossing + delay >= sample time``, so the edge is never clamped
    to the sample instant).
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from typing import List, Optional, Sequence

from ..sim.core import Simulator
from ..sim.signal import AnalogProbe
from ..sim.units import NS
from .buck import MultiphasePowerStage
from .sensors import SensorBank
from .stepping import (GROWTH, SAFETY, SteppingPolicy, commutation_target,
                       snap_to_commutation)


class AnalogSolver:
    """Co-simulation driver for a power stage plus its sensor bank."""

    def __init__(self, sim: Simulator, stage: MultiphasePowerStage,
                 sensors: Optional[SensorBank] = None, dt: float = 1.0 * NS,
                 trace: bool = True, policy: Optional[SteppingPolicy] = None):
        if dt <= 0:
            raise ValueError("solver step must be positive")
        self.sim = sim
        self.stage = stage
        self.sensors = sensors
        self.dt = dt
        self.trace = trace
        self.policy = policy if policy is not None else SteppingPolicy.fixed(dt)
        self.adaptive = self.policy.adaptive
        #: the instants of every recorded step, shared by the probes
        self.times = array("d")
        self.v_probe = AnalogProbe("v_load", trace=trace, times=self.times)
        self.i_probes: List[AnalogProbe] = [
            AnalogProbe(f"i_coil{k}", trace=trace, times=self.times)
            for k in range(stage.n_phases)
        ]
        self._started = False
        #: committed micro-steps so far (fixed mode: one per dt)
        self.tick_count = 0
        if self.adaptive:
            p = self.policy
            self._t_last = 0.0
            self._proposal = min(max(dt, p.dt_min), p.dt_max)
            self._commutes: List[float] = []   # heap of pending flip times
            self._pending = None               # the scheduled next tick
            self._breaks = list(stage.load.change_times())
            delay = sensors.hl.delay if sensors is not None else dt
            self._guard = min(dt, delay) if delay > 0 else dt

    def start(self) -> None:
        """Begin integration at the current simulation time."""
        if self._started:
            raise RuntimeError("solver already started")
        self._started = True
        self._record(self.sim.now)
        if self.sensors is not None:
            self.sensors.sample_all(self.sim.now)
        if not self.adaptive:
            self.sim.schedule(self.dt, self._tick)
            return
        self._t_last = self.sim.now
        # plan the first step only after the t=0 initialisation events
        # (clocks, activators, initial comparator edges) have fired
        self.sim.schedule_at(self.sim.now, self._plan, priority=1)

    # ------------------------------------------------------------------
    # Fixed-step tick: step, record (as _record does), sample
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        stage = self.stage
        stage.step(now - self.dt, self.dt)
        self.tick_count += 1
        if self.trace:
            self.times.append(now)
        self.v_probe.sample(stage.v_out)
        for probe, phase in zip(self.i_probes, stage.phases):
            probe.sample(phase.current)
        if self.sensors is not None:
            self.sensors.sample_all(now)
        self.sim.schedule(self.dt, self._tick)

    # ------------------------------------------------------------------
    # Adaptive stepping
    # ------------------------------------------------------------------
    def _tick_adaptive(self) -> None:
        """Commit the step ending now (priority -1: ahead of same-instant
        digital events) and defer planning the next one to priority +1
        (after they have all fired)."""
        self._pending = None
        now = self.sim.now
        h = now - self._t_last
        if h > 0.0:
            self._commit(now, h)
        self.sim.schedule_at(now, self._plan, priority=1)

    def _commit(self, now: float, h: float) -> None:
        """Integrate ``[t_last, now]``, record, sample, and update the
        error-controlled step-size proposal."""
        stage, policy = self.stage, self.policy
        err_i, err_v = stage.step(self._t_last, h)
        self._t_last = now
        self.tick_count += 1
        self._record(now)
        if self.sensors is not None:
            self.sensors.sample_all(now)
        # tolerance-scaled error -> next proposal (order-2 controller)
        i_mag = max(abs(p.current) for p in stage.phases)
        scale_i = policy.atol_i + policy.rtol * i_mag
        scale_v = policy.atol_v + policy.rtol * abs(stage.v_out)
        en = max(err_i / scale_i, err_v / scale_v)
        raw = SAFETY * h / math.sqrt(en) if en > 0.0 else policy.dt_max
        self._proposal = max(min(raw, GROWTH * self._proposal, policy.dt_max),
                             policy.dt_min)

    def _plan(self) -> None:
        """Choose and schedule the next step end (priority +1: every
        same-instant event has fired, so the slopes are post-flip)."""
        now = self.sim.now
        h = self._proposal
        cap = self._crossing_cap(now)
        guard = self._guard
        if cap < h:
            # land the step end half a guard past the predicted crossing:
            # the crossing falls inside this one delay-sized step and the
            # comparator's interpolated edge time stays exact
            h = cap + 0.5 * guard if cap > 0.5 * guard else guard
        t_next = now + h
        # load-profile breakpoints land on step boundaries
        idx = bisect_right(self._breaks, now)
        if idx < len(self._breaks) and self._breaks[idx] < t_next:
            t_next = self._breaks[idx]
        # pending gate-driver commutations snap the step end
        t_next = snap_to_commutation(self._commutes, now, t_next, guard)
        self._pending = self.sim.schedule_at(t_next, self._tick_adaptive,
                                             priority=-1)

    def crossing_bound(self) -> float:
        """Public bound for the clock-gating heuristic: seconds from now
        until the earliest predicted comparator flip (inf when nothing is
        in sight).  Valid in both stepping modes; consumers treat it as a
        profitability hint, not a correctness guarantee.

        Unlike the step-planning cap this excludes the body-diode clamp:
        the clamp is not a comparator, produces no controller-visible
        edge, and would otherwise spuriously veto gating during every
        freewheeling decay."""
        return self._crossing_cap(self.sim.now, clamp=False)

    def _crossing_cap(self, now: float, clamp: bool = True) -> float:
        """Earliest predicted comparator crossing (or, when ``clamp``,
        body-diode clamp), in seconds from now, from the analytic ODE
        slopes at the current state; inf when nothing is in sight."""
        sensors = self.sensors
        if sensors is None:
            return math.inf
        stage = self.stage
        currents = [p.current for p in stage.phases]
        didt, dvdt = stage._derivatives(now, currents, stage.v_out)
        # columns in all_comparators() order: hl, uv, ov, oc_k, zc_k
        cap = first_hit([comp.armed_level()
                         for comp in sensors.all_comparators()],
                        [stage.v_out] * 3 + currents + currents,
                        [dvdt] * 3 + didt + didt)
        if clamp:
            # freewheeling decay: the body-diode clamp at exactly zero
            free = [k for k, p in enumerate(stage.phases)
                    if not p.pmos_on and not p.nmos_on and currents[k] != 0.0]
            cap = first_hit([0.0] * len(free), [currents[k] for k in free],
                            [didt[k] for k in free], cap)
        return cap

    def note_commutation(self, when: float) -> None:
        """Gate-driver hook: a transistor flip was scheduled for ``when``.

        Future flips snap the step end; a flip at (or before) the current
        instant needs no action — it lands on the running step's start.
        """
        if when <= self.sim.now:
            return
        heapq.heappush(self._commutes, when)
        pending = self._pending
        if pending is None:
            return
        target = commutation_target(when, self._t_last, self._guard)
        if self.sim.now < target < pending.time:
            pending.cancel()
            self._pending = self.sim.schedule_at(target, self._tick_adaptive,
                                                 priority=-1)

    def sync(self) -> None:
        """Commit the integration up to the current kernel time.

        Adaptive runs land ticks on event-driven boundaries, so a
        ``run_until`` horizon (the settle boundary, the end of the run)
        usually falls between ticks; measurements taken there must see
        state integrated all the way to it.  No-op in fixed mode and when
        a tick already landed exactly on the horizon.
        """
        if not self.adaptive or not self._started:
            return
        now = self.sim.now
        if now - self._t_last > 0.0:
            self._commit(now, now - self._t_last)
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._plan()

    def _record(self, t: float) -> None:
        if self.trace:
            self.times.append(t)
        self.v_probe.sample(self.stage.v_out)
        for probe, phase in zip(self.i_probes, self.stage.phases):
            probe.sample(phase.current)

    # ------------------------------------------------------------------
    # Traced waveforms
    # ------------------------------------------------------------------
    def trace_set(self):
        """The traced analog waveforms as a columnar
        :class:`~repro.trace.TraceSet` (``v_load``, ``i_coil{k}``,
        ``i_total`` on one shared time grid) — the canonical trace
        representation, copied out of the probes' live columns (the
        run may go on recording afterwards)."""
        from ..trace import probe_trace_set
        return probe_trace_set(self.v_probe, self.i_probes)

    # ------------------------------------------------------------------
    # Convenience measurements used by the experiments
    # ------------------------------------------------------------------
    def peak_coil_current(self) -> float:
        """Largest instantaneous |coil current| seen on any phase."""
        return max(p.peak_abs for p in self.i_probes)

    def reset_measurements(self) -> None:
        """Restart the probes' max / min (e.g. after the startup transient)."""
        self.v_probe.reset_stats()
        for probe in self.i_probes:
            probe.reset_stats()


def first_hit(levels: Sequence[float], xs: Sequence[float],
              slopes: Sequence[float], cap: float = math.inf) -> float:
    """Earliest time, below ``cap``, at which some ``xs[j]`` moving at
    ``slopes[j]`` reaches ``levels[j]``; ``cap`` when none does.

    The crossing scan both backends' bounds share: a flat slope never
    hits, and only strictly positive times count.
    """
    for level, x, slope in zip(levels, xs, slopes):
        if slope != 0.0:
            t_hit = (level - x) / slope
            if 0.0 < t_hit < cap:
                cap = t_hit
    return cap
