"""Vectorized multiphase buck power stage: N scenarios in lock-step.

:class:`VectorizedPowerStage` holds the analog state of N independent
buck converters (lanes) as NumPy arrays of shape ``(N,)`` / ``(N, P)``
and advances *all* of them with one RK2 step of array operations —
replacing N sequential :meth:`repro.analog.buck.MultiphasePowerStage.step`
calls with O(1) Python work per micro-step.

The arithmetic mirrors the scalar model operation for operation (same
RK2 form, same body-diode clamp, same soft-saturation derating, same
trapezoidal energy bookkeeping), so each lane's currents, ``v_out``,
input and output energy, coil losses and error estimates equal the
scalar :meth:`~repro.analog.buck.MultiphasePowerStage.step` results
exactly, at any phase count
(``tests/scenarios/test_stage_parity.py``).  Three implementation
tricks keep the per-step cost flat:

- the piecewise switch-state coefficients (``v_drive = A + B*i``) are
  recomputed only when a gate driver commutates, not on every step;
- the body diodes are table-driven too: each commutation also refreshes
  the drive offsets for negative and positive current (``A_neg`` /
  ``A_pos``, the diode drops on open phases, ``A`` on conducting ones),
  so a step selects the offset by current sign with two masked copies
  and needs no branch on whether any diode conducts;
- all intermediates live in preallocated scratch buffers and every
  ``(N, P)`` operation is one ``out=`` ufunc call with array operands
  (a fixed ``dt`` is held as full arrays of the same doubles), so a
  step performs no allocations on the fast path (soft saturation, when
  active, takes a slower allocating branch).

Each lane's discrete-event side (controller, gate drivers) talks to the
arrays through :class:`LanePhase` / :class:`LaneStage` views, which
present the same interface as :class:`~repro.analog.buck.BuckPhase` /
:class:`~repro.analog.buck.MultiphasePowerStage` — including the
short-circuit safety rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analog.buck import BuckPhase, ShortCircuitError
from ..analog.coil import make_coil
from ..analog.load import LoadProfile
from ..system import SystemConfig


class LanePhase:
    """View of one lane's phase ``k``: the gate-driver-facing surface of
    :class:`~repro.analog.buck.BuckPhase`, backed by the shared arrays."""

    __slots__ = ("stage", "lane", "index")

    def __init__(self, stage: "VectorizedPowerStage", lane: int, index: int):
        self.stage = stage
        self.lane = lane
        self.index = index

    @property
    def current(self) -> float:
        return float(self.stage.current[self.lane, self.index])

    @property
    def pmos_on(self) -> bool:
        return bool(self.stage.pmos_on[self.lane, self.index])

    @property
    def nmos_on(self) -> bool:
        return bool(self.stage.nmos_on[self.lane, self.index])

    def set_pmos(self, on: bool) -> None:
        st, i, k = self.stage, self.lane, self.index
        if on and st.nmos_on[i, k]:
            raise ShortCircuitError(
                f"lane {i} phase {k}: PMOS turned ON while NMOS conducts")
        if bool(on) != bool(st.pmos_on[i, k]):
            st.switch_count[i, k] += 1
        st.pmos_on[i, k] = on
        st._update_switch_entry(i, k)

    def set_nmos(self, on: bool) -> None:
        st, i, k = self.stage, self.lane, self.index
        if on and st.pmos_on[i, k]:
            raise ShortCircuitError(
                f"lane {i} phase {k}: NMOS turned ON while PMOS conducts")
        if bool(on) != bool(st.nmos_on[i, k]):
            st.switch_count[i, k] += 1
        st.nmos_on[i, k] = on
        st._update_switch_entry(i, k)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sw = "P" if self.pmos_on else ("N" if self.nmos_on else "-")
        return (f"LanePhase(lane={self.lane}, k={self.index}, "
                f"i={self.current:.4f}A, sw={sw})")


class LaneStage:
    """Per-lane stage view (a :class:`MultiphasePowerStage` look-alike)."""

    __slots__ = ("stage", "lane", "phases")

    def __init__(self, stage: "VectorizedPowerStage", lane: int):
        self.stage = stage
        self.lane = lane
        self.phases: List[LanePhase] = [
            LanePhase(stage, lane, k) for k in range(stage.n_phases)]

    @property
    def v_out(self) -> float:
        return float(self.stage.v_out[self.lane])

    @property
    def v_in(self) -> float:
        return float(self.stage.v_in[self.lane])

    @property
    def n_phases(self) -> int:
        return self.stage.n_phases

    def total_current(self) -> float:
        return float(self.stage.current[self.lane].sum())

    def coil_losses_j(self) -> float:
        return float(self.stage.coil_loss_j[self.lane].sum())

    def efficiency(self) -> float:
        e_in = float(self.stage.energy_in_j[self.lane])
        if e_in <= 0:
            return 0.0
        return float(self.stage.energy_out_j[self.lane]) / e_in


class VectorizedPowerStage:
    """N-lane buck power stage advanced by lock-step array RK2 steps.

    Built from per-lane :class:`SystemConfig` objects; lanes may differ in
    coil, input rail, output capacitance, load profile, and initial
    voltage, but must share the phase count (batching constraint).

    ``track_energy=False`` skips the per-step energy/loss accumulation
    (roughly a third of the step's array work).  Energy bookkeeping never
    feeds back into the dynamics, so waveforms and comparator edges are
    unaffected — but lane ``coil_loss_w`` / ``efficiency`` read as zero.
    Use it for peak-current sweeps that don't report losses.
    """

    def __init__(self, configs: Sequence[SystemConfig],
                 track_energy: bool = True):
        self.track_energy = track_energy
        if not configs:
            raise ValueError("need at least one lane")
        n_phases = configs[0].n_phases
        if any(c.n_phases != n_phases for c in configs):
            raise ValueError("all lanes in a batch must share n_phases")
        n = len(configs)
        self.n_lanes = n
        self.n_phases = n_phases

        self.v_in = np.array([c.v_in for c in configs], dtype=np.float64)
        self.c_out = np.array([c.c_out for c in configs], dtype=np.float64)
        self.v_out = np.array([c.v_out0 for c in configs], dtype=np.float64)

        # Per-lane coil/transistor parameters, broadcast over phases (the
        # scalar factory uses identical coils in every phase; tolerance
        # studies can still vary them per lane).
        coils = [c.coil or make_coil(c.inductance) for c in configs]
        ref = BuckPhase(0, coils[0])   # transistor parameter defaults
        ones = np.ones((1, n_phases))
        self.inductance = np.array([co.inductance for co in coils])[:, None] * ones
        self.dcr = np.array([co.dcr for co in coils])[:, None] * ones
        self.i_sat = np.array([co.i_sat for co in coils])[:, None] * ones
        self.r_pmos = np.full((n, n_phases), ref.r_pmos)
        self.r_nmos = np.full((n, n_phases), ref.r_nmos)
        self.v_diode = np.full((n, n_phases), ref.v_diode)

        self.current = np.zeros((n, n_phases))
        self.pmos_on = np.zeros((n, n_phases), dtype=bool)
        self.nmos_on = np.zeros((n, n_phases), dtype=bool)
        self.switch_count = np.zeros((n, n_phases), dtype=np.int64)
        self.coil_loss_j = np.zeros((n, n_phases))
        self.energy_in_j = np.zeros(n)
        self.energy_out_j = np.zeros(n)

        self.loads: List[LoadProfile] = [
            c.load or LoadProfile.constant(6.0) for c in configs]
        self._build_load_tables()
        self._alloc_scratch()
        self._refresh_switch()
        self.lanes: List[LaneStage] = [LaneStage(self, i) for i in range(n)]

    # ------------------------------------------------------------------
    # Load lookup
    # ------------------------------------------------------------------
    def _build_load_tables(self) -> None:
        s_max = max(len(load._times) for load in self.loads)
        n = self.n_lanes
        self._load_times = np.full((n, s_max), np.inf)
        self._load_values = np.ones((n, s_max))
        for i, load in enumerate(self.loads):
            s = len(load._times)
            self._load_times[i, :s] = load._times
            self._load_values[i, :s] = load._values
            self._load_values[i, s:] = load._values[-1]
        self._load_constant = s_max == 1
        self._r_const = np.ascontiguousarray(self._load_values[:, 0])
        self._lane_idx = np.arange(n)

    def resistance(self, t) -> np.ndarray:
        """Per-lane load resistance at time ``t`` (scalar-model semantics:
        piecewise-constant, clamped before t=0).  ``t`` is a scalar in
        lock-step operation or an ``(N,)`` array of per-lane times when
        the adaptive stepper advances lanes on their own step grids."""
        if self._load_constant:
            return self._r_const
        if not isinstance(t, np.ndarray):
            idx = (self._load_times <= t).sum(axis=1) - 1
        else:
            idx = (self._load_times <= t[:, None]).sum(axis=1) - 1
        np.maximum(idx, 0, out=idx)
        return self._load_values[self._lane_idx, idx]

    def next_load_change(self, t: np.ndarray) -> np.ndarray:
        """Per-lane time of the first load breakpoint strictly after each
        lane's ``t`` (``inf`` where the load never changes again)."""
        if self._load_constant:
            return np.full(self.n_lanes, np.inf)
        idx = (self._load_times <= t[:, None]).sum(axis=1)
        idx = np.minimum(idx, self._load_times.shape[1] - 1)
        nxt = self._load_times[self._lane_idx, idx]
        return np.where(nxt > t, nxt, np.inf)

    # ------------------------------------------------------------------
    # Precomputed coefficients and scratch buffers
    # ------------------------------------------------------------------
    def _alloc_scratch(self) -> None:
        n, p = self.n_lanes, self.n_phases
        shape = (n, p)
        vin_col = self.v_in[:, None]
        # constants of the piecewise drive model
        self._vin_col = vin_col * np.ones((1, p))
        self._vin_half = 0.5 * self.v_in[:, None]        # for input energy
        self._vin_pvd = self._vin_col + self.v_diode     # PMOS body diode
        self._nvd = -self.v_diode                        # NMOS body diode
        self._n_dcr = -self.dcr
        self._n_dcr_rp = -(self.dcr + self.r_pmos)
        self._n_dcr_rn = -(self.dcr + self.r_nmos)
        # switch-state dependent coefficients (refreshed on commutation)
        self._A = np.zeros(shape)
        self._A_neg = np.zeros(shape)    # drive offset while i < 0
        self._A_pos = np.zeros(shape)    # drive offset while i > 0
        self._B = np.zeros(shape)
        self._pmos_f = np.zeros(shape)
        self._cond = np.zeros(shape, dtype=bool)
        self._off_b = np.ones(shape, dtype=bool)
        # full-shape operands: a same-shape ufunc call is the cheapest
        # dispatch, so no step op takes a Python scalar
        self._zeros = np.zeros(shape)
        self._half_np = np.full(shape, 0.5)
        self._half_n = np.full(n, 0.5)
        self._dt_key: Optional[float] = None   # dt of the arrays below
        self._dt_np = np.empty(shape)
        self._dt_half_np = np.empty(shape)
        self._dt_n = np.empty(n)
        self._dt_half_n = np.empty(n)
        # numpy's add.reduce sums 8 or more elements pairwise; the scalar
        # twin adds the phases in order
        self._ordered_sum = p >= 8
        # scratch
        self._i_sat_min = float(self.i_sat.min())
        self._f1 = np.empty(shape)
        self._f2 = np.empty(shape)
        self._f3 = np.empty(shape)
        self._f3_flat = self._f3.reshape(-1)
        self._fm = np.empty(shape)
        self._b1 = np.empty(shape, dtype=bool)
        self._b2 = np.empty(shape, dtype=bool)
        self._k1_i = np.empty(shape)
        self._k2_i = np.empty(shape)
        self._mid_i = np.empty(shape)
        self._next_i = np.empty(shape)
        self._k1_v = np.empty(n)
        #: load resistance of slopes primed into ``_k1_i`` / ``_k1_v``
        #: by :meth:`prime_k1`; None when the next step evaluates them
        self._k1_r: Optional[np.ndarray] = None
        self._k2_v = np.empty(n)
        self._mid_v = np.empty(n)
        self._next_v = np.empty(n)
        self._n1 = np.empty(n)
        self._n2 = np.empty(n)

    def _refresh_switch(self) -> None:
        """Rebuild all conduction-path coefficients (initialisation)."""
        self._k1_r = None
        pmos, nmos = self.pmos_on, self.nmos_on
        cond = np.logical_or(pmos, nmos, out=self._cond)
        np.logical_not(cond, out=self._off_b)
        self._pmos_f[:] = pmos
        # conducting phases: v_drive = A + B*i  (exactly the scalar forms:
        # PMOS v_in - i*(dcr+r_p); NMOS -i*(dcr+r_n)); an open phase
        # conducts through a body diode: v_drive = A_neg + B*i (PMOS
        # diode, i < 0) or A_pos + B*i (NMOS diode, i > 0), B = -dcr
        self._A[:] = np.where(pmos, self._vin_col, 0.0)
        self._A_neg[:] = np.where(cond, self._A, self._vin_pvd)
        self._A_pos[:] = np.where(cond, self._A, self._nvd)
        self._B[:] = np.where(pmos, self._n_dcr_rp,
                              np.where(nmos, self._n_dcr_rn, self._n_dcr))

    def _update_switch_entry(self, i: int, k: int) -> None:
        """Refresh one lane-phase's coefficients after a commutation."""
        self._k1_r = None
        p = bool(self.pmos_on[i, k])
        nm = bool(self.nmos_on[i, k])
        cond = p or nm
        self._cond[i, k] = cond
        self._off_b[i, k] = not cond
        self._pmos_f[i, k] = 1.0 if p else 0.0
        a = self._vin_col[i, k] if p else 0.0
        self._A[i, k] = a
        self._A_neg[i, k] = a if cond else self._vin_pvd[i, k]
        self._A_pos[i, k] = a if cond else self._nvd[i, k]
        if p:
            self._B[i, k] = self._n_dcr_rp[i, k]
        elif nm:
            self._B[i, k] = self._n_dcr_rn[i, k]
        else:
            self._B[i, k] = self._n_dcr[i, k]

    # ------------------------------------------------------------------
    # Dynamics (mirrors MultiphasePowerStage step-for-step)
    # ------------------------------------------------------------------
    def _derivatives(self, t, i: np.ndarray, v: np.ndarray,
                     didt_out: np.ndarray, dvdt_out: np.ndarray,
                     _gt=np.greater, _lt=np.less, _mul=np.multiply,
                     _add=np.add, _sub=np.subtract, _div=np.divide,
                     _abs=np.abs, _or=np.logical_or, _copyto=np.copyto,
                     _max=np.maximum.reduce) -> np.ndarray:
        """Write di/dt and dv/dt into the out arrays; return r_load(t)."""
        neg = _lt(i, self._zeros, out=self._b1)
        pos = _gt(i, self._zeros, out=self._b2)
        # drive offset by current sign: the body-diode drop on open
        # phases, the switch term on conducting ones
        f1 = self._f1
        f1[:] = self._A
        _copyto(f1, self._A_neg, where=neg)
        _copyto(f1, self._A_pos, where=pos)
        f2 = _mul(self._B, i, out=self._f2)
        _add(f1, f2, out=f1)                      # v_drive
        _sub(f1, v[:, None], out=f1)              # v_drive - v_out
        # cheap probe: saturation is impossible while max|i| <= min(i_sat)
        f3 = _abs(i, out=self._f3)
        if _max(self._f3_flat) > self._i_sat_min:
            od = _div(f3, self.i_sat, out=f3)
            # soft saturation possibly engaged: allocating slow path
            l_eff = self.inductance * np.where(
                od <= 1.0, 1.0, 0.4 + 0.6 / np.maximum(od, 1.0))
            _div(f1, l_eff, out=didt_out)
        else:
            _div(f1, self.inductance, out=didt_out)
        # discontinuous conduction: an open coil at zero current stays open
        act = _or(neg, pos, out=self._b1)
        _or(act, self._cond, out=act)
        fm = self._fm
        fm[:] = act         # as 0.0 / 1.0: see the clamp in step()
        _mul(didt_out, fm, out=didt_out)

        r_load = self.resistance(t)
        n1 = self._row_sum(i, self._n1)
        _div(v, r_load, out=self._n2)
        _sub(n1, self._n2, out=n1)
        _div(n1, self.c_out, out=dvdt_out)
        return r_load

    def _row_sum(self, x: np.ndarray, out: np.ndarray,
                 _add=np.add, _rsum=np.add.reduce) -> np.ndarray:
        """Sum each lane's phases into ``out`` in the scalar twin's
        order (see ``_ordered_sum``); return ``out``."""
        if self._ordered_sum:
            _add(x[:, 0], x[:, 1], out=out)
            for k in range(2, self.n_phases):
                _add(out, x[:, k], out=out)
        else:
            _rsum(x, axis=1, out=out)
        return out

    def prime_k1(self, t: np.ndarray):
        """Evaluate the slopes at the current state and time ``t`` into
        the RK2 first-stage buffers and return them as ``(di/dt, dv/dt)``.

        The next :meth:`step` (which must start from the same ``t``)
        reuses them instead of evaluating its first stage again, unless
        a commutation (:meth:`_update_switch_entry`,
        :meth:`_refresh_switch`) rewrote the switch tables in between.
        The adaptive planner reads its crossing slopes this way.
        """
        self._k1_r = self._derivatives(t, self.current, self.v_out,
                                       self._k1_i, self._k1_v)
        return self._k1_i, self._k1_v

    def lane_slopes(self, lane: int, t: float):
        """One lane's ``(currents, di/dt, v_out, dv/dt)`` at time ``t`` as
        Python floats, from the same switch tables as :meth:`_derivatives`
        — the per-lane counterpart of the scalar twin's ``_derivatives``
        for callers that need one lane (the clock-gating crossing bound).
        Soft saturation is not applied: the caller treats the slopes as a
        profitability hint."""
        cur = self.current[lane].tolist()
        v = self.v_out.item(lane)
        didt = []
        for i, a, a_neg, a_pos, b, cond, ind in zip(
                cur, self._A[lane].tolist(), self._A_neg[lane].tolist(),
                self._A_pos[lane].tolist(), self._B[lane].tolist(),
                self._cond[lane].tolist(), self.inductance[lane].tolist()):
            if i < 0.0:
                a = a_neg
            elif i > 0.0:
                a = a_pos
            elif not cond:
                didt.append(0.0)   # discontinuous conduction: coil is open
                continue
            didt.append((a + b * i - v) / ind)
        total = 0.0   # in order, as in the scalar twin
        for i in cur:
            total += i
        dvdt = (total - v / self.loads[lane].resistance(t)) \
            / self.c_out.item(lane)
        return cur, didt, v, dvdt

    def step(self, t, dt,
             err_i_out: Optional[np.ndarray] = None,
             err_v_out: Optional[np.ndarray] = None,
             _mul=np.multiply, _add=np.add, _abs=np.abs,
             _gt=np.greater, _le=np.less_equal, _or=np.logical_or,
             _and=np.logical_and, _max=np.maximum.reduce) -> None:
        """Advance every lane by ``dt`` with an explicit midpoint (RK2) step.

        Identical semantics to the scalar model: switch states held across
        the step; body-diode conduction clamped at the zero crossing;
        trapezoidal energy bookkeeping on the accepted step.

        ``t`` / ``dt`` are scalars in lock-step operation, or ``(N,)``
        per-lane arrays when the adaptive stepper advances each lane on
        its own grid (a lane with ``dt == 0`` is a bit-exact no-op).
        First-stage slopes primed by :meth:`prime_k1` are used as they
        are.
        When ``err_i_out`` / ``err_v_out`` are given, the embedded
        RK2(1) per-lane error estimates ``max_k |dt*(k2-k1)|`` (currents)
        and ``|dt*(k2-k1)|`` (voltage) are written into them.
        """
        if isinstance(dt, np.ndarray):
            half_row = 0.5 * dt
            half_col = half_row[:, None]
            dt_row = dt
            dt_col = dt[:, None]
            t_mid = t + half_row
        else:
            if dt != self._dt_key:
                # full arrays of the same doubles: bit-identical products
                self._dt_np.fill(dt)
                self._dt_half_np.fill(0.5 * dt)
                self._dt_n.fill(dt)
                self._dt_half_n.fill(0.5 * dt)
                self._dt_key = dt
            dt_col, half_col = self._dt_np, self._dt_half_np
            dt_row, half_row = self._dt_n, self._dt_half_n
            t_mid = t + 0.5 * dt
        i0 = self.current
        v0 = self.v_out

        r_load = self._k1_r
        if r_load is None:
            r_load = self._derivatives(t, i0, v0, self._k1_i, self._k1_v)
        else:
            self._k1_r = None
        _mul(self._k1_i, half_col, out=self._mid_i)
        _add(i0, self._mid_i, out=self._mid_i)
        _mul(self._k1_v, half_row, out=self._mid_v)
        _add(v0, self._mid_v, out=self._mid_v)
        self._derivatives(t_mid, self._mid_i, self._mid_v,
                          self._k2_i, self._k2_v)

        i1 = self._next_i
        v1 = self._next_v
        _mul(self._k2_i, dt_col, out=i1)
        _add(i0, i1, out=i1)
        _mul(self._k2_v, dt_row, out=v1)
        _add(v0, v1, out=v1)

        # Body-diode conduction can only decay the current; a sign flip or
        # magnitude growth means the diode stopped: the coil opens at zero.
        # Kept: conducting phases, and same-sign non-growing currents (a
        # NaN current fails both comparisons and stays NaN either way).
        f1 = _mul(i0, i1, out=self._f1)
        keep = _gt(f1, self._zeros, out=self._b1)
        a0 = _abs(i0, out=self._f1)
        a1 = _abs(i1, out=self._f2)
        _le(a1, a0, out=self._b2)
        _and(keep, self._b2, out=keep)
        _or(keep, self._cond, out=keep)
        fm = self._fm
        fm[:] = keep        # a float mask multiplies faster than a bool one
        _mul(i1, fm, out=i1)
        # the mask turns a negative current into -0.0; adding +0.0 makes
        # it the 0.0 the scalar stage writes (and leaves NaN as NaN)
        _add(i1, self._zeros, out=i1)

        if self.track_energy:
            # Trapezoidal energy bookkeeping on the accepted step.
            f1 = np.multiply(i0, i0, out=self._f1)
            f2 = np.multiply(i1, i1, out=self._f2)
            np.add(f1, f2, out=f1)
            f1 *= self._half_np
            np.multiply(f1, self.dcr, out=f1)
            f1 *= dt_col
            self.coil_loss_j += f1

            f2 = np.add(i0, i1, out=self._f2)
            np.multiply(self._vin_half, f2, out=f2)
            f2 *= dt_col
            f2 *= self._pmos_f
            self._row_sum(f2, self._n1)
            self.energy_in_j += self._n1

            np.multiply(v0, v0, out=self._n1)
            np.multiply(v1, v1, out=self._n2)
            np.add(self._n1, self._n2, out=self._n1)
            self._n1 *= self._half_n
            np.divide(self._n1, r_load, out=self._n1)
            self._n1 *= dt_row
            self.energy_out_j += self._n1

        # Commit by buffer swap (views read the attributes afresh).
        self.current = i1
        self._next_i = i0
        self.v_out = v1
        self._next_v = v0

        if err_i_out is not None:
            # embedded RK2(1) estimate: |dt * (k2 - k1)|, worst phase
            d = np.subtract(self._k2_i, self._k1_i, out=self._f1)
            np.abs(d, out=d)
            _max(d, axis=1, out=err_i_out)
            err_i_out *= dt_row
            np.subtract(self._k2_v, self._k1_v, out=err_v_out)
            np.abs(err_v_out, out=err_v_out)
            err_v_out *= dt_row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VectorizedPowerStage(lanes={self.n_lanes}, "
                f"phases={self.n_phases})")
