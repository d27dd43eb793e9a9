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

Vectorized-vs-scalar caveats
----------------------------
- With noiseless sensors the arithmetic is operation-for-operation
  identical to the scalar path, so waveforms and comparator edge times
  agree to floating-point accuracy (enforced by the equivalence tests).
- With ``sensor_noise > 0`` the comparator jitter is drawn from a batch
  NumPy generator instead of each lane's ``Simulator.rng``: runs remain
  deterministic and per-lane reproducible, but the noise *realization*
  differs from the scalar path's.
- Events that land on the exact same timestamp as a solver micro-step
  are delivered before the array step, while the scalar kernel orders
  same-time events by scheduling sequence.  With the default sub-step
  sensor/gate delays the orderings coincide; pathological zero-delay
  configurations may reorder same-instant events between backends.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..analog.sensors import BuckReferences
from ..analog.stepping import GROWTH, SAFETY, SteppingPolicy
from ..sim.core import Simulator
from ..sim.signal import Signal
from ..system import SystemConfig
from ..trace import BatchTraceRecorder, TraceSet

#: fixed comparator column order: voltage monitors, then per-phase OC/ZC
#: (matches :meth:`repro.analog.sensors.SensorBank.all_comparators`)
V_COLS = 3  # hl, uv, ov


class _LaneComparatorView:
    """Controller-facing stand-in for one scalar ``Comparator``: just the
    output signal (plus the live threshold, for introspection)."""

    __slots__ = ("bank", "lane", "col", "output")

    def __init__(self, bank: "VectorComparatorBank", lane: int, col: int,
                 output: Signal):
        self.bank = bank
        self.lane = lane
        self.col = col
        self.output = output

    @property
    def threshold(self) -> float:
        return float(self.bank.threshold[self.lane, self.col])


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
        self.hl = bank.view(lane, 0)
        self.uv = bank.view(lane, 1)
        self.ov = bank.view(lane, 2)
        self.oc = [bank.view(lane, V_COLS + k) for k in range(n_phases)]
        self.zc = [bank.view(lane, V_COLS + n_phases + k)
                   for k in range(n_phases)]
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
        self.noise = np.array([cfg.sensor_noise for cfg in configs])
        # Per-lane noise generators, seeded from each lane's config seed:
        # a lane's jitter stream never depends on its batch neighbours.
        self._noise_lanes = [int(i) for i in np.nonzero(self.noise != 0.0)[0]]
        self._noise_rngs = {
            i: np.random.Generator(np.random.PCG64(configs[i].seed))
            for i in self._noise_lanes
        }

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

        #: callback(lane_index, fire_time) invoked on every scheduled edge
        #: (the lock-step solver uses it to keep its event heap current)
        self.on_schedule = None

        names = (["hl", "uv", "ov"]
                 + [f"oc{k}" for k in range(n_phases)]
                 + [f"zc{k}" for k in range(n_phases)])
        self.outputs: List[List[Signal]] = [
            [Signal(sims[i], name, init=False, trace=configs[i].trace)
             for name in names]
            for i in range(n)
        ]
        self._views = {}

    def view(self, lane: int, col: int) -> _LaneComparatorView:
        key = (lane, col)
        if key not in self._views:
            self._views[key] = _LaneComparatorView(
                self, lane, col, self.outputs[lane][col])
        return self._views[key]

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
            th = self.threshold.copy()
            for i in self._noise_lanes:
                if active is not None and not active[i]:
                    continue
                th[i] += (self.noise[i]
                          * self._noise_rngs[i].standard_normal(self.n_cols))
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
        if changed.any():
            self._schedule_edges(t, x, new_state, changed)
            if not self._noise_lanes:
                adj_on, th_ = self._adj_on, self.threshold
                lvl = self._level
                for i, c in np.argwhere(changed):
                    lvl[i, c] = adj_on[i, c] if new_state[i, c] else th_[i, c]
            np.copyto(state, new_state, where=changed)
        self._prev_x = x
        self._cur = 1 - cur
        self._prev_t = np.array(t, copy=True) if np.ndim(t) else t

    def _schedule_edges(self, t, x: np.ndarray, new_state: np.ndarray,
                        changed: np.ndarray) -> None:
        prev_t = self._prev_t
        t_arr = np.ndim(t) != 0
        for i, c in np.argwhere(changed):
            t_i = float(t[i]) if t_arr else t
            xv = float(x[i, c])
            cross_t = t_i
            if prev_t is not None:
                prev_ti = (float(prev_t[i]) if np.ndim(prev_t) else prev_t)
                prev_x = float(self._prev_x[i, c])
                if prev_x != xv:
                    # interpolate against the clean threshold, like the
                    # scalar comparator
                    frac = (float(self.threshold[i, c]) - prev_x) / (xv - prev_x)
                    if 0.0 <= frac <= 1.0:
                        cross_t = prev_ti + frac * (t_i - prev_ti)
            fire_at = max(t_i, cross_t + float(self.delay[i]))
            out = self.outputs[i][c]
            value = bool(new_state[i, c])
            self.sims[i].schedule_at(fire_at, lambda o=out, v=value: o._apply(v))
            if self.on_schedule is not None:
                self.on_schedule(int(i), fire_at)


class VectorizedSolver:
    """Lock-step co-simulation driver for a batch of scenarios.

    Parameters
    ----------
    sims:
        One :class:`Simulator` per lane (each owns that lane's controller
        and gate-driver events).
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
        self._buffers = BatchTraceRecorder(n, p) if trace else None
        self.now = 0.0
        self._started = False
        #: fused fixed-grid tick (built on first advance_to; see
        #: :meth:`_make_fixed_tick`)
        self._tick_fixed = None
        if self.policy.adaptive:
            pol = self.policy
            self._prop = np.full(n, min(max(dt, pol.dt_min), pol.dt_max))
            self._lane_t = np.zeros(n)
            self._commutes: List[List[float]] = [[] for _ in range(n)]
            self._t_tgt: Optional[np.ndarray] = None
            delays = (bank.delay if bank is not None else np.full(n, dt))
            self._guards = np.where(delays > 0,
                                    np.minimum(dt, delays), dt)
            self._err_i = np.empty(n)
            self._err_v = np.empty(n)
            self._didt = np.empty((n, p))
            self._dvdt = np.empty(n)
            if bank is not None:
                c = bank.n_cols
                self._xq = np.empty((n, c))
                self._sq = np.empty((n, c))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Record the initial state and take the t=0 comparator sample."""
        if self._started:
            raise RuntimeError("solver already started")
        self._started = True
        self._record(self.now)
        if self.bank is not None:
            self.bank.sample(self.now, self.stage.v_out, self.stage.current)
        if self.policy.adaptive:
            self._lane_t.fill(self.now)

    def advance_to(self, t_end: float) -> None:
        """Run all lanes until ``t_end`` (lock-step fixed grid, or each
        lane's own adaptive grid)."""
        if not self._started:
            raise RuntimeError("call start() first")
        if self.policy.adaptive:
            self._advance_adaptive(t_end)
            return
        t = self.now
        dt = self.dt
        bank = self.bank
        if self._tick_fixed is None:
            self._tick_fixed = self._make_fixed_tick()
        tick = self._tick_fixed
        sims = self.sims
        queues = [sim._queue for sim in sims]

        # Min-heap of (next event time, lane): one comparison per tick
        # instead of a scan over every lane.  ``due[lane]`` is the time of
        # the lane's one live entry (inf when its queue is empty); an entry
        # whose time no longer equals it was superseded and is skipped on
        # pop.  Lanes only gain events while their own handlers run (the
        # post-drain re-key covers those) or when the comparator bank
        # schedules an edge (on_schedule pushes only when the edge is
        # earlier than the lane's live entry).  ``due`` never exceeds the
        # lane's real queue head, so no event is ever late.
        inf = math.inf
        due = [q[0][0] if q else inf for q in queues]
        heads = [(d, i) for i, d in enumerate(due) if d < inf]
        heapq.heapify(heads)
        push = heapq.heappush
        pop = heapq.heappop
        if bank is not None:
            def on_schedule(lane: int, when: float) -> None:
                if when < due[lane]:
                    due[lane] = when
                    push(heads, (when, lane))
            bank.on_schedule = on_schedule
        ticks = 0
        try:
            while True:
                t_next = t + dt
                if t_next > t_end:
                    break
                while heads and heads[0][0] <= t_next:
                    when, lane = pop(heads)
                    if when != due[lane]:
                        continue
                    q = queues[lane]
                    if q and q[0][0] <= t_next:
                        sims[lane].run_until(t_next)
                    if q:
                        when = due[lane] = q[0][0]
                        push(heads, (when, lane))
                    else:
                        due[lane] = inf
                tick(t, t_next)
                ticks += 1
                t = t_next
            self.now = t
            for sim in sims:
                sim.run_until(t_end)
        finally:
            self.tick_counts += ticks
            if bank is not None:
                bank.on_schedule = None

    def _make_fixed_tick(self) -> Callable[[float, float], None]:
        """Build the per-tick callable for fixed stepping.

        ``tick(t, t_next)`` advances the stage by ``dt`` from ``t``,
        updates the waveform statistics at ``t_next``, and evaluates the
        comparator bank at ``t_next``, with every attribute lookup
        hoisted to closure locals.  The caller owns the tick counter and
        the event pump.
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
        digital events strictly before its step end — one at a time, so
        a commutation scheduled by a cascade can still shrink the end —
        then commits one array step with the per-lane ``dt`` vector,
        samples the comparator bank, and fires the events sitting
        exactly on the boundary.  The ordering mirrors the scalar
        adaptive solver: commit (priority -1) before same-instant
        events, planning (priority +1) after them.
        """
        policy = self.policy
        stage, bank = self.stage, self.bank
        sims = self.sims
        n = stage.n_lanes
        queues = [sim._queue for sim in sims]
        guards = self._guards
        t = self._lane_t
        prop = self._prop
        dt_min, dt_max = policy.dt_min, policy.dt_max
        half_g = 0.5 * guards
        while (t < t_end).any():
            # ---- plan: per-lane step ends --------------------------------
            caps = self._crossing_caps(t)
            h = np.where(caps < prop,
                         np.where(caps > half_g, caps + half_g, guards),
                         prop)
            t_tgt = t + h
            np.minimum(t_tgt, t_end, out=t_tgt)
            nb = stage.next_load_change(t)
            np.copyto(t_tgt, nb, where=nb < t_tgt)
            for i in range(n):
                ch = self._commutes[i]
                ti = t[i]
                while ch and ch[0] <= ti:
                    heapq.heappop(ch)
                if ch and ch[0] < t_tgt[i]:
                    if ch[0] - ti >= guards[i]:
                        t_tgt[i] = ch[0]
                    elif ti + guards[i] < t_tgt[i]:
                        t_tgt[i] = ti + guards[i]
            self._t_tgt = t_tgt
            # ---- deliver events strictly before each lane's end ----------
            # (one at a time: a cascade may schedule a commutation that
            # shrinks this lane's t_tgt through note_commutation)
            for i in range(n):
                if queues[i] and queues[i][0][0] < t_tgt[i]:
                    sim = sims[i]
                    while sim.run_one_before(t_tgt[i]):
                        pass
            # ---- commit one array step with the per-lane dt vector -------
            h_arr = t_tgt - t
            active = h_arr > 0.0
            stage.step(t, h_arr, err_i_out=self._err_i,
                       err_v_out=self._err_v)
            self.tick_counts += active
            self._record(t_tgt)
            if bank is not None:
                bank.sample(t_tgt, stage.v_out, stage.current, active=active)
            # ---- boundary events (flips snapped onto step ends) ----------
            for i in range(n):
                if active[i]:
                    sims[i].run_until(t_tgt[i])
            # ---- error-controlled proposals for the next step ------------
            with np.errstate(divide="ignore", invalid="ignore"):
                i_mag = np.abs(stage.current).max(axis=1)
                scale_i = policy.atol_i + policy.rtol * i_mag
                scale_v = policy.atol_v + policy.rtol * np.abs(stage.v_out)
                en = np.maximum(self._err_i / scale_i, self._err_v / scale_v)
                raw = np.where(en > 0.0, SAFETY * h_arr / np.sqrt(en), dt_max)
            p_new = np.maximum(
                np.minimum(np.minimum(raw, GROWTH * prop), dt_max), dt_min)
            np.copyto(prop, p_new, where=active)
            np.copyto(t, t_tgt)
        self._t_tgt = None
        self.now = t_end
        for sim in sims:
            sim.run_until(t_end)

    def _crossing_caps(self, t: np.ndarray) -> np.ndarray:
        """Per-lane earliest predicted comparator crossing (or body-diode
        clamp), in seconds from each lane's ``t``, from the analytic ODE
        slopes at the current state — the vector twin of the scalar
        solver's ``_crossing_cap``."""
        stage, bank = self.stage, self.bank
        didt, dvdt = self._didt, self._dvdt
        stage._derivatives(t, stage.current, stage.v_out, didt, dvdt)
        if bank is None:
            return np.full(stage.n_lanes, np.inf)
        p = stage.n_phases
        lvl = np.where(bank.state, bank.threshold + bank._hyst_eff,
                       bank.threshold)
        xq, sq = self._xq, self._sq
        xq[:, :V_COLS] = stage.v_out[:, None]
        xq[:, V_COLS:V_COLS + p] = stage.current
        xq[:, V_COLS + p:] = stage.current
        sq[:, :V_COLS] = dvdt[:, None]
        sq[:, V_COLS:V_COLS + p] = didt
        sq[:, V_COLS + p:] = didt
        with np.errstate(divide="ignore", invalid="ignore"):
            th = (lvl - xq) / sq
            valid = (sq != 0.0) & (th > 0.0)
            caps = np.where(valid, th, np.inf).min(axis=1)
            # freewheeling decay: the body-diode clamp at exactly zero
            tz = (0.0 - stage.current) / didt
            vz = (stage._off_b & (stage.current != 0.0) & (didt != 0.0)
                  & (tz > 0.0))
            np.minimum(caps, np.where(vz, tz, np.inf).min(axis=1), out=caps)
        return caps

    def lane_crossing_bound(self, lane: int) -> float:
        """One lane's clock-gating bound: seconds from the lane's current
        event time until the earliest predicted comparator flip (inf when
        nothing is in sight) — the per-lane twin of the scalar solver's
        :meth:`~repro.analog.solver.AnalogSolver.crossing_bound`.

        Pure scalar Python over the shared arrays (called per awake FSM
        edge, for one lane — an array pass over all lanes would cost
        more).  Like the scalar bound it excludes the body-diode clamp
        (not a comparator, produces no controller-visible edge) and, as a
        profitability hint, the soft-saturation derating.
        """
        bank = self.bank
        if bank is None:
            return math.inf
        stage = self.stage
        p = stage.n_phases
        cur = stage.current
        pmos, nmos = stage.pmos_on, stage.nmos_on
        v = float(stage.v_out[lane])
        total_i = 0.0
        didt = []
        for k in range(p):
            i = float(cur[lane, k])
            total_i += i
            if pmos[lane, k]:
                drive = (float(stage._vin_col[lane, k])
                         + i * float(stage._n_dcr_rp[lane, k]))
            elif nmos[lane, k]:
                drive = i * float(stage._n_dcr_rn[lane, k])
            elif i != 0.0:
                diode = (float(stage._vin_pvd[lane, k]) if i < 0.0
                         else float(stage._nvd[lane, k]))
                drive = diode + i * float(stage._n_dcr[lane, k])
            else:
                didt.append(0.0)
                continue
            didt.append((drive - v) / float(stage.inductance[lane, k]))
        r = float(stage.loads[lane].resistance(self.sims[lane].now))
        dvdt = (total_i - v / r) / float(stage.c_out[lane])

        threshold, state, hyst = bank.threshold, bank.state, bank._hyst_eff
        cap = math.inf
        for c in range(bank.n_cols):
            level = float(threshold[lane, c])
            if state[lane, c]:
                level += float(hyst[lane, c])
            if c < V_COLS:
                x, slope = v, dvdt
            else:
                x = float(cur[lane, (c - V_COLS) % p])
                slope = didt[(c - V_COLS) % p]
            if slope != 0.0:
                t_hit = (level - x) / slope
                if 0.0 < t_hit < cap:
                    cap = t_hit
        return cap

    def note_commutation(self, lane: int, when: float) -> None:
        """Gate-driver hook: lane ``lane`` scheduled a transistor flip.

        Same window rule as the scalar solver: a flip at least a guard
        past the lane's step start snaps the step end exactly onto it;
        a closer flip bounds the end at start + guard (fixed-grade
        retroactivity), coalescing dense flip bursts into one tick.
        """
        sim = self.sims[lane]
        if when <= sim.now:
            return
        heapq.heappush(self._commutes[lane], when)
        tgt = self._t_tgt
        if tgt is None:
            return
        t0 = self._lane_t[lane]
        guard = self._guards[lane]
        target = when if when - t0 >= guard else t0 + guard
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
    def waveform_times(self, lane: int = 0) -> np.ndarray:
        """Raw sample times: one shared grid in fixed mode; each lane's
        own grid in adaptive mode (pass the lane index; a lane that
        idled while stragglers caught up repeats its last boundary —
        :meth:`trace_set` compacts those rows away)."""
        if self._buffers is None:
            raise ValueError("solver ran with trace=False")
        return self._buffers.lane_times(lane)

    def v_waveform(self, lane: int) -> np.ndarray:
        if self._buffers is None:
            raise ValueError("solver ran with trace=False")
        return self._buffers.lane_v(lane)

    def i_waveform(self, lane: int, phase: int) -> np.ndarray:
        if self._buffers is None:
            raise ValueError("solver ran with trace=False")
        return self._buffers.lane_i(lane, phase)

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
