"""Vectorized analog solver: lock-step micro-stepping of N lanes.

:class:`VectorizedSolver` replaces N per-lane solver tick events (the hot
path of the scalar :class:`~repro.analog.solver.AnalogSolver`) with one
array step per ``dt``: advance the :class:`VectorizedPowerStage`, update
per-lane waveform statistics, and evaluate every lane's comparators as
one array comparison.  Only actual threshold crossings fall back to
per-lane Python work — the crossing instant is interpolated inside the
step (exactly like the scalar :class:`~repro.analog.sensors.Comparator`)
and the output edge is scheduled on *that lane's* discrete-event
simulator, where the lane's controller reacts through the ordinary
event-driven machinery.

With adaptive stepping every lane advances on its own error-controlled
grid.  Each iteration plans all lanes' step ends with array operations
into preallocated buffers, delivers each lane's due events in one
kernel drain up to its step end, and commits one array step with a
per-lane ``dt`` vector.

Vectorized-vs-scalar agreement
------------------------------
- The arithmetic is operation-for-operation identical to the scalar
  path, so waveforms and comparator edge times agree exactly (enforced
  by the equivalence tests).  With ``sensor_noise > 0`` each lane draws
  its comparator jitter from its own ``Simulator.rng`` in the scalar
  order, so noisy lanes are bit-matched too.
- With fixed stepping the array step is itself a kernel event on the
  lanes' shared heap, so events landing on the exact timestamp of a
  micro-step order around it by scheduling sequence, as around the
  scalar solver's tick event.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..analog.sensors import BuckReferences, edge_time
from ..analog.solver import first_hit
from ..analog.stepping import (GROWTH, SAFETY, SteppingPolicy,
                               commutation_target, snap_to_commutation)
from ..sim.core import Simulator
from ..sim.signal import Signal
from ..system import SystemConfig
from ..trace import BatchTraceRecorder, TraceSet

#: fixed comparator column order: voltage monitors, then per-phase OC/ZC
#: (matches :meth:`repro.analog.sensors.SensorBank.all_comparators`)
V_COLS = 3  # hl, uv, ov


class _LaneComparatorView:
    """Controller-facing stand-in for one scalar ``Comparator``: just the
    output signal."""

    __slots__ = ("output",)

    def __init__(self, output: Signal):
        self.output = output


class LaneSensors:
    """Per-lane sensor surface (hl/uv/ov/oc/zc + OV-mode swap), backed by
    the shared :class:`VectorComparatorBank` arrays.  Implements the
    contract of :class:`repro.analog.sensors.SensorBank` that both
    controllers consume (see :mod:`repro.control.params`)."""

    def __init__(self, bank: "VectorComparatorBank", lane: int):
        self._bank = bank
        self.lane = lane
        self.refs = bank.refs[lane]
        n_phases = bank.n_phases
        views = [_LaneComparatorView(out) for out in bank.outputs[lane]]
        self.hl, self.uv, self.ov = views[:V_COLS]
        self.oc = views[V_COLS:V_COLS + n_phases]
        self.zc = views[V_COLS + n_phases:]
        self._ov_mode = [False] * n_phases

    def set_ov_mode(self, phase_index: int, on: bool) -> None:
        """Swap phase ``phase_index``'s OC/ZC references for OV operation."""
        if self._ov_mode[phase_index] == on:
            return
        self._ov_mode[phase_index] = on
        r = self.refs
        bank, i = self._bank, self.lane
        bank.threshold[i, V_COLS + phase_index] = r.i_0 if on else r.i_max
        bank.threshold[i, V_COLS + bank.n_phases + phase_index] = \
            r.i_neg if on else r.i_0
        bank.mark_thresholds_dirty()

    def ov_mode(self, phase_index: int) -> bool:
        return self._ov_mode[phase_index]

    def all_comparators(self) -> List[_LaneComparatorView]:
        return [self.hl, self.uv, self.ov] + self.oc + self.zc


class VectorComparatorBank:
    """All comparators of all lanes as ``(N, C)`` arrays.

    ``C = 3 + 2 * n_phases`` columns: ``hl, uv, ov, oc_0..oc_{P-1},
    zc_0..zc_{P-1}``.  Thresholds, hysteresis, state, and previous samples
    live in arrays; output edges are scheduled on each lane's simulator
    with the scalar model's sub-step crossing interpolation.
    """

    def __init__(self, sims: Sequence[Simulator],
                 configs: Sequence[SystemConfig], n_phases: int):
        n = len(sims)
        c = V_COLS + 2 * n_phases
        self.sims = list(sims)
        self.n_lanes = n
        self.n_phases = n_phases
        self.n_cols = c
        self.refs: List[BuckReferences] = [
            cfg.refs or BuckReferences() for cfg in configs]

        self.threshold = np.empty((n, c))
        self.hysteresis = np.empty((n, c))
        #: polarity per column: output high while quantity above threshold
        self.dir_above = np.zeros(c, dtype=bool)
        self.dir_above[2] = True                      # ov
        self.dir_above[V_COLS:V_COLS + n_phases] = True   # oc
        for i, r in enumerate(self.refs):
            self.threshold[i, :V_COLS] = (r.v_min, r.v_ref, r.v_max)
            self.threshold[i, V_COLS:V_COLS + n_phases] = r.i_max
            self.threshold[i, V_COLS + n_phases:] = r.i_0
            self.hysteresis[i, :V_COLS] = r.v_hyst
            self.hysteresis[i, V_COLS:] = r.i_hyst

        self.delay = np.array([cfg.sensor_delay for cfg in configs])
        # noisy lanes draw their jitter from their own Simulator.rng
        self.noise = [cfg.sensor_noise for cfg in configs]
        self._noise_lanes = [i for i, sigma in enumerate(self.noise) if sigma]

        self.state = np.zeros((n, c), dtype=bool)
        self._prev_t: Optional[float] = None
        # double-buffered sample matrices with pre-created views (column
        # blocks for the fill and the per-polarity comparisons)
        self._bufs = [np.empty((n, c)), np.empty((n, c))]
        p = n_phases
        self._buf_views = [
            (b, b[:, :V_COLS], b[:, V_COLS:V_COLS + p], b[:, V_COLS + p:],
             b[:, :2], b[:, 2:V_COLS + p])
            for b in self._bufs
        ]
        self._cur = 0
        self._prev_x = self._bufs[1]
        # hysteresis always widens the high region: the latched trip level
        # is threshold-hyst for ABOVE comparators, threshold+hyst for BELOW
        self._hyst_eff = np.where(self.dir_above[None, :],
                                  -self.hysteresis, self.hysteresis)
        self._level_on = self.threshold + self._hyst_eff
        # The scalar hold decision is non-strict (``x >= level`` for ABOVE,
        # ``x <= level`` for BELOW) while the trip decision is strict.  A
        # single strict comparison serves both by nudging the latched
        # level one ulp toward the held region: x >= L  <=>  x > pred(L).
        self._adj_dir = np.where(self.dir_above[None, :], -np.inf, np.inf)
        self._adj_on = np.nextafter(self._level_on, self._adj_dir)
        self._dirty = False
        # active strict-comparison level per comparator; maintained
        # incrementally (changes only on state flips and threshold swaps)
        self._level = self.threshold.copy()
        self._cmp = np.empty((n, c), dtype=bool)
        self._b2 = np.empty((n, c), dtype=bool)
        self._lvl_low = self._level[:, :2]
        self._lvl_abv = self._level[:, 2:V_COLS + p]
        self._lvl_zc = self._level[:, V_COLS + p:]
        self._cmp_low = self._cmp[:, :2]
        self._cmp_abv = self._cmp[:, 2:V_COLS + p]
        self._cmp_zc = self._cmp[:, V_COLS + p:]

        names = (["hl", "uv", "ov"]
                 + [f"oc{k}" for k in range(n_phases)]
                 + [f"zc{k}" for k in range(n_phases)])
        self.outputs: List[List[Signal]] = [
            [Signal(sims[i], name, init=False, trace=configs[i].trace)
             for name in names]
            for i in range(n)
        ]

    def mark_thresholds_dirty(self) -> None:
        """Re-derive the cached trip levels after a threshold swap."""
        self._dirty = True

    def refresh_levels(self) -> None:
        """Rebuild the active strict-comparison levels (noiseless path;
        noisy lanes re-derive their levels on every sample instead)."""
        np.add(self.threshold, self._hyst_eff, out=self._level_on)
        np.nextafter(self._level_on, self._adj_dir, out=self._adj_on)
        level = self._level
        np.copyto(level, self.threshold)
        np.copyto(level, self._adj_on, where=self.state)
        self._dirty = False

    # ------------------------------------------------------------------
    def sample(self, t, v_out: np.ndarray, currents: np.ndarray,
               active: Optional[np.ndarray] = None) -> None:
        """Evaluate every comparator at time ``t`` (one solver step).

        ``t`` is a scalar in lock-step operation or an ``(N,)`` array of
        per-lane sample times (adaptive stepping).  ``active`` masks the
        lanes that actually advanced this iteration: inactive lanes are
        excluded from noise draws and edge detection, so a lane's jitter
        stream and edge history stay pure functions of its own steps.
        """
        cur = self._cur
        x, xv, xoc, xzc, xlow, xabv = self._buf_views[cur]
        xv[:] = v_out[:, None]
        xoc[:] = currents
        xzc[:] = currents

        state = self.state
        if self._noise_lanes:
            rows = [i for i in self._noise_lanes
                    if active is None or active[i]]
            # the scalar SensorBank's draws: one per comparator, in
            # column (= all_comparators()) order, from the lane's rng
            lanes = [(self.sims[i].rng.gauss, self.noise[i]) for i in rows]
            draws = [gauss(0.0, sigma) for gauss, sigma in lanes
                     for _ in range(self.n_cols)]
            th = self.threshold.copy()
            th[rows] += np.reshape(draws, (len(rows), self.n_cols))
            # write through self._level so the block views stay coherent
            level = self._level
            np.copyto(level, th)
            np.copyto(level, np.nextafter(th + self._hyst_eff, self._adj_dir),
                      where=state)
        elif self._dirty:
            self.refresh_levels()
            level = self._level
        else:
            level = self._level
        # One strict comparison per polarity block decides trip AND hold
        # (held entries compare against the ulp-nudged level; the ABOVE
        # columns ov, oc_0..oc_{P-1} are contiguous by construction).
        cmp_ = self._cmp
        np.less(xlow, self._lvl_low, out=self._cmp_low)          # hl, uv
        np.greater(xabv, self._lvl_abv, out=self._cmp_abv)       # ov, oc
        np.less(xzc, self._lvl_zc, out=self._cmp_zc)             # zc
        new_state = cmp_

        changed = np.not_equal(new_state, state, out=self._b2)
        if active is not None:
            np.logical_and(changed, active[:, None], out=changed)
        if np.count_nonzero(changed):
            self._schedule_edges(t, x, new_state, changed)
            if not self._noise_lanes:
                np.copyto(self._level,
                          np.where(new_state, self._adj_on, self.threshold),
                          where=changed)
            np.copyto(state, new_state, where=changed)
        self._prev_x = x
        self._cur = 1 - cur
        self._prev_t = t.copy() if isinstance(t, np.ndarray) else t

    def _schedule_edges(self, t, x: np.ndarray, new_state: np.ndarray,
                        changed: np.ndarray) -> None:
        # Python scalars throughout: list rows for the per-lane times,
        # .item() for the few changed entries
        prev_t = self._prev_t
        t_list = t.tolist() if isinstance(t, np.ndarray) else None
        prev_list = (prev_t.tolist() if isinstance(prev_t, np.ndarray)
                     else None)
        prev_x, threshold, delay = self._prev_x, self.threshold, self.delay
        # nonzero() walks in row-major order, like argwhere
        rows, cols = changed.nonzero()
        for i, c in zip(rows.tolist(), cols.tolist()):
            t_i = t if t_list is None else t_list[i]
            prev_ti = prev_t if prev_list is None else prev_list[i]
            fire_at = edge_time(t_i, x.item(i, c), prev_ti, prev_x.item(i, c),
                                threshold.item(i, c), delay.item(i))
            out = self.outputs[i][c]
            value = new_state.item(i, c)
            # the lane stands at the sample instant, so the edge is
            # scheduled (born) there, as on the scalar backend
            sim = self.sims[i]
            sim.now = t_i
            sim.schedule_at(fire_at, lambda o=out, v=value: o._apply(v))


class VectorizedSolver:
    """Lock-step co-simulation driver for a batch of scenarios.

    Parameters
    ----------
    sims:
        One :class:`Simulator` per lane (each owns that lane's controller
        and gate-driver events).  With fixed stepping the lanes must
        share one event heap (``Simulator(share_heap=sims[0])``); with
        adaptive stepping each lane keeps its own.
    stage:
        The shared :class:`VectorizedPowerStage`.
    bank:
        The shared :class:`VectorComparatorBank` (may be ``None`` for
        open-loop integration).
    dt:
        Micro-step, identical for every lane (batching constraint).
    trace:
        Keep full waveforms (per-step ``(N,)`` voltage and ``(N, P)``
        current snapshots) in addition to the running statistics.
    policy:
        The :class:`~repro.analog.stepping.SteppingPolicy`; ``None``
        means fixed stepping at ``dt``.  In adaptive mode every lane
        advances on its **own** error-controlled step grid (one array
        step per iteration with a per-lane ``dt`` vector): each lane's
        step sequence is a pure function of that lane's state, never of
        its batch neighbours, which keeps results bit-identical across
        batch compositions — and therefore across the inline, sharded,
        and cached execution paths.
    """

    def __init__(self, sims: Sequence[Simulator], stage, bank, dt: float,
                 trace: bool = False,
                 policy: Optional[SteppingPolicy] = None):
        if dt <= 0:
            raise ValueError("solver step must be positive")
        self.sims = list(sims)
        self.stage = stage
        self.bank = bank
        self.dt = dt
        self.trace = trace
        self.policy = policy if policy is not None else SteppingPolicy.fixed(dt)
        n, p = stage.n_lanes, stage.n_phases
        self.v_max = np.full(n, -np.inf)
        self.v_min = np.full(n, np.inf)
        self.i_max = np.full((n, p), -np.inf)
        self.i_min = np.full((n, p), np.inf)
        #: per-lane committed micro-step counts
        self.tick_counts = np.zeros(n, dtype=np.int64)
        self._buffers = (BatchTraceRecorder(
            n, p, lane_times=self.policy.adaptive) if trace else None)
        self.now = 0.0
        self._started = False
        #: fixed-step ticks not yet added to ``tick_counts``
        self._ticks = 0
        if self.policy.adaptive:
            pol = self.policy
            self._prop = np.full(n, min(max(dt, pol.dt_min), pol.dt_max))
            self._lane_t = np.zeros(n)
            self._commutes: List[List[float]] = [[] for _ in range(n)]
            #: per-lane step ends as Python floats while events are
            #: delivered (``note_commutation`` may lower them)
            self._t_tgt: Optional[List[float]] = None
            delays = (bank.delay if bank is not None else np.full(n, dt))
            self._guards = np.where(delays > 0,
                                    np.minimum(dt, delays), dt)
            self._err_i = np.empty(n)
            self._err_v = np.empty(n)
            # per-iteration buffers: plan, commit and proposal
            self._caps = np.full(n, np.inf)
            self._tgt_arr = np.empty(n)
            self._h = np.empty(n)
            self._active = np.empty(n, dtype=bool)
            self._mag = np.empty((n, p))
            self._en = np.empty(n)
            self._en_v = np.empty(n)
            self._scale = np.empty(n)
            self._raw = np.empty(n)
            self._pos = np.empty(n, dtype=bool)
            if bank is not None:
                # crossing scan over C comparator columns plus P clamp
                # columns: hl uv ov | oc_k | zc_k | clamp_k
                c = bank.n_cols
                shape = (n, c + p)
                self._lvl = np.zeros(shape)    # clamp columns stay 0.0
                self._xq = np.empty(shape)
                self._sq = np.empty(shape)
                self._th = np.empty(shape)
                self._cand = np.empty(shape)
                self._hit = np.empty(shape, dtype=bool)
                self._above = np.empty(shape, dtype=bool)
                self._lvl_cmp = self._lvl[:, :c]
                self._xq_v = self._xq[:, :V_COLS]
                self._xq_i = self._xq[:, V_COLS:].reshape(n, 3, p)
                self._sq_v = self._sq[:, :V_COLS]
                self._sq_i = self._sq[:, V_COLS:].reshape(n, 3, p)
                self._sq_clamp = self._sq[:, c:]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Record the initial state, take the t=0 comparator sample and,
        in fixed mode, schedule the first tick event."""
        if self._started:
            raise RuntimeError("solver already started")
        self._started = True
        self._record(self.now)
        if self.bank is not None:
            self.bank.sample(self.now, self.stage.v_out, self.stage.current)
        if self.policy.adaptive:
            self._lane_t.fill(self.now)
            return
        # The tick shares the lanes' heap and sequence counter, so
        # same-instant lane events order around it by scheduling
        # sequence, exactly as around the scalar solver's tick event.
        # It counts on its own non-lane simulator, never on a lane's.
        ticker = Simulator(share_heap=self.sims[0])
        tick = self._make_fixed_tick()
        dt = self.dt
        t = self.now

        def on_tick() -> None:
            nonlocal t
            t_next = ticker.now
            tick(t, t_next)
            t = t_next
            self._ticks += 1
            ticker.schedule(dt, on_tick)

        ticker.schedule(dt, on_tick)

    def advance_to(self, t_end: float) -> None:
        """Run all lanes until ``t_end`` (lock-step fixed grid, or each
        lane's own adaptive grid)."""
        if not self._started:
            raise RuntimeError("call start() first")
        if self.policy.adaptive:
            self._advance_adaptive(t_end)
            return
        # one drain of the shared heap delivers every lane's events and
        # the tick events up to t_end, in global (time, sequence) order
        try:
            self.sims[0].run_until(t_end)
        finally:
            self.tick_counts += self._ticks
            self._ticks = 0
        self.now = t_end
        for sim in self.sims:
            sim.now = t_end

    def _make_fixed_tick(self) -> Callable[[float, float], None]:
        """Build the per-tick callable for fixed stepping.

        ``tick(t, t_next)`` advances the stage by ``dt`` from ``t``,
        updates the waveform statistics at ``t_next``, and evaluates the
        comparator bank at ``t_next``, with every attribute lookup
        hoisted to closure locals.  The tick event built in
        :meth:`start` owns the tick counter and the rescheduling.
        """
        stage = self.stage
        step = stage.step
        record = self._record
        dt = self.dt
        if self.bank is None:
            def tick(t: float, t_next: float) -> None:
                step(t, dt)
                record(t_next)
            return tick
        sample = self.bank.sample

        def tick(t: float, t_next: float) -> None:
            step(t, dt)
            record(t_next)
            sample(t_next, stage.v_out, stage.current)
        return tick

    # ------------------------------------------------------------------
    # Adaptive stepping (per-lane error-controlled grids)
    # ------------------------------------------------------------------
    def _advance_adaptive(self, t_end: float) -> None:
        """Advance every lane to ``t_end`` on its own adaptive grid.

        Each iteration plans a per-lane step end (error-controlled
        proposal, capped by predicted comparator crossings and snapped
        onto commutations and load breakpoints), delivers each lane's
        digital events strictly before its step end in one kernel drain
        per lane (:meth:`~repro.sim.core.Simulator.run_before`, which
        re-reads the end after every event, so a commutation scheduled
        by a cascade can still shrink it), then commits one array step
        with the per-lane ``dt`` vector, samples the comparator bank, and
        fires the events sitting exactly on the boundary.  The ordering
        mirrors the scalar adaptive solver: commit (priority -1) before
        same-instant events, planning (priority +1) after them.

        Step ends and lane clocks are Python floats throughout the event
        side, so no NumPy scalar leaks into a lane's ``now`` or into the
        times of the events its callbacks schedule.
        """
        policy = self.policy
        stage, bank = self.stage, self.bank
        sims = self.sims
        queues = [sim._queue for sim in sims]
        guards = self._guards
        g_list = guards.tolist()
        commutes = self._commutes
        t = self._lane_t
        prop = self._prop
        t_tgt, h_arr, active = self._tgt_arr, self._h, self._active
        mag, scale, en, en_v = self._mag, self._scale, self._en, self._en_v
        raw, pos = self._raw, self._pos
        err_i, err_v = self._err_i, self._err_v
        rtol, atol_i, atol_v = policy.rtol, policy.atol_i, policy.atol_v
        dt_min, dt_max = policy.dt_min, policy.dt_max
        half_g = 0.5 * guards
        load_breaks = not stage._load_constant
        while (t < t_end).any():
            # ---- plan: per-lane step ends --------------------------------
            caps = self._crossing_caps(t)
            h = np.where(caps < prop,
                         np.where(caps > half_g, caps + half_g, guards),
                         prop)
            np.add(t, h, out=t_tgt)
            np.minimum(t_tgt, t_end, out=t_tgt)
            if load_breaks:
                nb = stage.next_load_change(t)
                np.copyto(t_tgt, nb, where=nb < t_tgt)
            lim = t_tgt.tolist()
            for i, (ch, t0, g) in enumerate(zip(commutes, t.tolist(),
                                                g_list)):
                if ch:
                    lim[i] = snap_to_commutation(ch, t0, lim[i], g)
            self._t_tgt = lim
            # ---- deliver events strictly before each lane's end ----------
            # (one drain per lane; it re-reads lim[i] after every event)
            for i, queue in enumerate(queues):
                if queue and queue[0][0] < lim[i]:
                    sims[i].run_before(lim, i)
            # ---- commit one array step with the per-lane dt vector -------
            t_tgt[:] = lim
            np.subtract(t_tgt, t, out=h_arr)
            np.greater(h_arr, 0.0, out=active)
            stage.step(t, h_arr, err_i_out=err_i, err_v_out=err_v)
            self.tick_counts += active
            self._record(t_tgt)
            if bank is not None:
                bank.sample(t_tgt, stage.v_out, stage.current, active=active)
            # ---- boundary events (flips snapped onto step ends) ----------
            for i in active.nonzero()[0].tolist():
                queue, end = queues[i], lim[i]
                if queue and queue[0][0] <= end:
                    sims[i].run_until(end)
                else:
                    sims[i].now = end
            # ---- error-controlled proposals for the next step ------------
            # en = max(err_i / (atol_i + rtol*max|i|),
            #          err_v / (atol_v + rtol*|v|)); a zero or NaN norm
            # proposes dt_max
            np.abs(stage.current, out=mag)
            np.maximum.reduce(mag, axis=1, out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(scale, atol_i, out=scale)
            np.divide(err_i, scale, out=en)
            np.abs(stage.v_out, out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(scale, atol_v, out=scale)
            np.divide(err_v, scale, out=en_v)
            np.maximum(en, en_v, out=en)
            np.greater(en, 0.0, out=pos)
            raw.fill(dt_max)
            np.sqrt(en, out=en, where=pos)
            np.multiply(h_arr, SAFETY, out=scale)
            np.divide(scale, en, out=raw, where=pos)
            np.multiply(prop, GROWTH, out=scale)
            np.minimum(raw, scale, out=raw)
            np.minimum(raw, dt_max, out=raw)
            np.maximum(raw, dt_min, out=prop, where=active)
            np.copyto(t, t_tgt)
        self._t_tgt = None
        self.now = t_end
        for sim in sims:
            sim.run_until(t_end)

    def _crossing_caps(self, t: np.ndarray) -> np.ndarray:
        """Per-lane earliest predicted comparator crossing (or body-diode
        clamp), in seconds from each lane's ``t``, from the analytic ODE
        slopes at the current state — the vector twin of the scalar
        solver's ``_crossing_cap``.

        The slopes land in the stage's RK2 first-stage buffers
        (:meth:`VectorizedPowerStage.prime_k1`), so the step committed
        from ``t`` reuses them.  One masked scan covers the comparator
        columns and a clamp column (level 0.0) per phase; a clamp column
        gets a zero slope on conducting phases, and a zero slope never
        hits.  Returns a buffer the next call overwrites.
        """
        stage, bank = self.stage, self.bank
        didt, dvdt = stage.prime_k1(t)
        caps = self._caps
        if bank is None:
            return caps
        lvl_cmp, th, hit, above, cand = (self._lvl_cmp, self._th, self._hit,
                                         self._above, self._cand)
        np.copyto(lvl_cmp, bank.threshold)
        np.add(lvl_cmp, bank._hyst_eff, out=lvl_cmp, where=bank.state)
        np.copyto(self._xq_v, stage.v_out[:, None])
        np.copyto(self._xq_i, stage.current[:, None, :])
        np.copyto(self._sq_v, dvdt[:, None])
        np.copyto(self._sq_i, didt[:, None, :])
        np.copyto(self._sq_clamp, 0.0, where=stage._cond)
        sq = self._sq
        np.subtract(self._lvl, self._xq, out=th)
        np.not_equal(sq, 0.0, out=hit)
        np.divide(th, sq, out=th, where=hit)
        np.greater(th, 0.0, out=above)
        np.logical_and(hit, above, out=hit)
        cand.fill(np.inf)
        np.copyto(cand, th, where=hit)
        np.minimum.reduce(cand, axis=1, out=caps)
        return caps

    def lane_crossing_bound(self, lane: int) -> float:
        """One lane's clock-gating bound: seconds from the lane's current
        event time until the earliest predicted comparator flip (inf when
        nothing is in sight) — the per-lane counterpart of the scalar
        solver's :meth:`~repro.analog.solver.AnalogSolver.crossing_bound`,
        through the same :func:`~repro.analog.solver.first_hit` scan.

        Pure scalar Python over the shared arrays (called per awake FSM
        edge, for one lane — an array pass over all lanes would cost
        more).  Like the scalar bound it excludes the body-diode clamp
        (not a comparator, produces no controller-visible edge) and, as a
        profitability hint, the soft-saturation derating.
        """
        bank = self.bank
        if bank is None:
            return math.inf
        cur, didt, v, dvdt = self.stage.lane_slopes(lane, self.sims[lane].now)
        levels = [th + h if s else th for th, h, s in zip(
            bank.threshold[lane].tolist(), bank._hyst_eff[lane].tolist(),
            bank.state[lane].tolist())]
        return first_hit(levels, [v] * V_COLS + cur + cur,
                         [dvdt] * V_COLS + didt + didt)

    def note_commutation(self, lane: int, when: float) -> None:
        """Gate-driver hook: lane ``lane`` scheduled a transistor flip.

        Same window rule as the scalar solver
        (:func:`~repro.analog.stepping.commutation_target`).
        """
        sim = self.sims[lane]
        if when <= sim.now:
            return
        heapq.heappush(self._commutes[lane], when)
        tgt = self._t_tgt
        if tgt is None:
            return
        target = commutation_target(when, self._lane_t.item(lane),
                                    self._guards.item(lane))
        if sim.now < target < tgt[lane]:
            tgt[lane] = target

    def _record(self, t) -> None:
        v, i = self.stage.v_out, self.stage.current
        np.maximum(self.v_max, v, out=self.v_max)
        np.minimum(self.v_min, v, out=self.v_min)
        np.maximum(self.i_max, i, out=self.i_max)
        np.minimum(self.i_min, i, out=self.i_min)
        if self._buffers is not None:
            self._buffers.append(t, v, i)

    # ------------------------------------------------------------------
    # Measurements (vector counterparts of AnalogSolver's helpers)
    # ------------------------------------------------------------------
    def peak_coil_current(self) -> np.ndarray:
        """Per-lane largest instantaneous |coil current| on any phase."""
        peak = np.maximum(np.abs(self.i_max), np.abs(self.i_min))
        return peak.max(axis=1)

    def ripple(self) -> np.ndarray:
        """Per-lane recorded V_out peak-to-peak (0 where nothing recorded)."""
        return np.where(self.v_max >= self.v_min, self.v_max - self.v_min, 0.0)

    def reset_measurements(self) -> None:
        """Restart the running statistics (e.g. after the startup
        transient); traced waveforms are preserved."""
        self.v_max.fill(-np.inf)
        self.v_min.fill(np.inf)
        self.i_max.fill(-np.inf)
        self.i_min.fill(np.inf)

    # ------------------------------------------------------------------
    # Traced waveforms
    # ------------------------------------------------------------------
    def trace_set(self, lane: int, compact: bool = True) -> TraceSet:
        """One lane's analog waveforms as a columnar
        :class:`~repro.trace.TraceSet`.

        Adaptive batches record a duplicate row for every lane that
        idled (zero-width step) while batch stragglers advanced;
        ``compact=True`` (the default) drops them, so the lane's trace
        equals the one the scalar adaptive solver records.  Pass
        ``compact=False`` for the raw rows (the trace memory benchmark
        measures the compaction win against them).
        """
        if self._buffers is None:
            raise ValueError("solver ran with trace=False")
        return self._buffers.lane_trace_set(lane, compact=compact)
