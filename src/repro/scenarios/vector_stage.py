"""Vectorized multiphase buck power stage: N scenarios in lock-step.

:class:`VectorizedPowerStage` holds the analog state of N independent
buck converters (lanes) as NumPy arrays and advances *all* of them with
one RK2 step of array operations — replacing N sequential
:meth:`repro.analog.buck.MultiphasePowerStage.step` calls with O(1)
Python work per micro-step.

The arithmetic mirrors the scalar model operation for operation (same
RK2 form, same body-diode clamp, same soft-saturation derating, same
trapezoidal energy bookkeeping), so each lane's currents, ``v_out``,
input and output energy, coil losses and error estimates equal the
scalar :meth:`~repro.analog.buck.MultiphasePowerStage.step` results
exactly, signed zeros included, at any phase count
(``tests/scenarios/test_stage_parity.py``).

A step costs NumPy call dispatch, not arithmetic: on 20 lanes x 4
phases a same-shape contiguous ``out=`` ufunc call costs about 0.5 us,
while a strided view, a broadcast operand, a ``where=`` mask or a
reduce along the last axis costs 1-2 us.  So the hot arrays are stored
**phase-major** and C-contiguous:

- the state is one ``(P + 1, N)`` array, :attr:`state`: rows
  ``0..P-1`` hold the phase currents and row ``P`` holds ``v_out``.
  The RK2 first and second stages, the midpoint and the swapped-out
  previous state (:attr:`prev_state`) have the same shape, so the
  midpoint and the final update are one call each over all rows;
- the switch tables, the coil parameters, a fixed ``dt`` (held as full
  arrays of the same doubles) and every scratch buffer are ``(P, N)``,
  so each per-phase operation is a same-shape call.  The phase sum
  (``dv/dt``, input energy) is the last row of an axis-0
  ``add.accumulate``, which adds the rows in phase order by definition,
  as the scalar twin does.  (An axis-0 ``add.reduce`` does too while
  ``N > 1``, but with one lane NumPy sums eight or more rows pairwise.)
- the switch-state coefficients (``v_drive = B*i + A``) are recomputed
  only when a gate driver commutates.  Body diodes are table-driven: an
  open phase's offset is the NMOS diode drop in ``A_pos`` and the PMOS
  one in ``A_neg``, so the drive is ``B*i + A_pos`` plus one masked add
  of ``A_neg`` where ``i < 0``.  The open-at-zero slopes and the diode
  clamp are one ``copyto(where=)`` each, writing the scalar ``0.0``.

A step allocates nothing on the fast path (soft saturation, when
active, takes a slower allocating branch).

Each lane's gate drivers talk to the arrays through :class:`LanePhase`
views (the :class:`~repro.analog.buck.BuckPhase` switch surface,
including the short-circuit safety rule).  Per-lane code reads the
``(N, P)`` names :attr:`current`, :attr:`pmos_on`, :attr:`nmos_on` and
:attr:`coil_loss_j`, which are ``.T`` views of the phase-major arrays,
and the ``(N,)`` row :attr:`v_out`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analog.buck import BuckPhase, ShortCircuitError
from ..analog.coil import make_coil
from ..analog.load import LoadProfile
from ..system import SystemConfig


class LanePhase:
    """View of one lane's phase ``k``: the gate-driver-facing switch
    surface of :class:`~repro.analog.buck.BuckPhase`, backed by the
    shared arrays."""

    __slots__ = ("stage", "lane", "index")

    def __init__(self, stage: "VectorizedPowerStage", lane: int, index: int):
        self.stage = stage
        self.lane = lane
        self.index = index

    def set_pmos(self, on: bool) -> None:
        st, i, k = self.stage, self.lane, self.index
        if on and st.nmos_on[i, k]:
            raise ShortCircuitError(
                f"lane {i} phase {k}: PMOS turned ON while NMOS conducts")
        st.pmos_on[i, k] = on
        st._update_switch_entry(i, k)

    def set_nmos(self, on: bool) -> None:
        st, i, k = self.stage, self.lane, self.index
        if on and st.pmos_on[i, k]:
            raise ShortCircuitError(
                f"lane {i} phase {k}: NMOS turned ON while PMOS conducts")
        st.nmos_on[i, k] = on
        st._update_switch_entry(i, k)


class LaneStage:
    """Per-lane stage view: the phase list a
    :class:`~repro.analog.gate_driver.GateDriverBank` drives."""

    __slots__ = ("phases",)

    def __init__(self, stage: "VectorizedPowerStage", lane: int):
        self.phases: List[LanePhase] = [
            LanePhase(stage, lane, k) for k in range(stage.n_phases)]


def _rows(buf: np.ndarray):
    """A ``(P + 1, N)`` buffer with its current rows, its ``v_out`` row
    and the ``(N, P)`` lane view of the current rows."""
    i = buf[:-1]
    return buf, i, buf[-1], i.T


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
        shape = (n_phases, n)

        self.v_in = np.array([c.v_in for c in configs], dtype=np.float64)
        self.c_out = np.array([c.c_out for c in configs], dtype=np.float64)

        # Per-lane coil/transistor parameters, broadcast over phases (the
        # scalar factory uses identical coils in every phase; tolerance
        # studies can still vary them per lane).
        coils = [c.coil or make_coil(c.inductance) for c in configs]
        ref = BuckPhase(0, coils[0])   # transistor parameter defaults
        ones = np.ones((n_phases, 1))
        self.inductance = ones * np.array([co.inductance for co in coils])
        self.dcr = ones * np.array([co.dcr for co in coils])
        self.i_sat = ones * np.array([co.i_sat for co in coils])
        self.r_pmos = np.full(shape, ref.r_pmos)
        self.r_nmos = np.full(shape, ref.r_nmos)
        self.v_diode = np.full(shape, ref.v_diode)

        self._pmos = np.zeros(shape, dtype=bool)
        self._nmos = np.zeros(shape, dtype=bool)
        self.pmos_on = self._pmos.T
        self.nmos_on = self._nmos.T
        self._coil_loss = np.zeros(shape)
        self.coil_loss_j = self._coil_loss.T
        self.energy_in_j = np.zeros(n)
        self.energy_out_j = np.zeros(n)

        # The state and the buffer the next step writes into; a step
        # swaps them, so between steps ``prev_state`` holds the state
        # before the last step.
        rows = (n_phases + 1, n)
        self._now = _rows(np.zeros(rows))
        self._then = _rows(np.zeros(rows))
        self._now[2][:] = [c.v_out0 for c in configs]
        self._publish()

        self.loads: List[LoadProfile] = [
            c.load or LoadProfile.constant(6.0) for c in configs]
        self._build_load_tables()
        self._alloc_scratch()
        self._refresh_switch()
        self.lanes: List[LaneStage] = [LaneStage(self, i) for i in range(n)]

    def _publish(self) -> None:
        """Point the public state names at the current buffer."""
        self.state, _, self.v_out, self.current = self._now
        self.prev_state = self._then[0]

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
        p, n = self.n_phases, self.n_lanes
        shape = (p, n)
        rows = (p + 1, n)
        ones = np.ones((p, 1))
        # constants of the piecewise drive model
        self._vin = ones * self.v_in
        self._vin_half = ones * (0.5 * self.v_in)        # for input energy
        self._vin_pvd = self._vin + self.v_diode         # PMOS body diode
        self._nvd = -self.v_diode                        # NMOS body diode
        self._n_dcr = -self.dcr
        self._n_dcr_rp = -(self.dcr + self.r_pmos)
        self._n_dcr_rn = -(self.dcr + self.r_nmos)
        # switch-state dependent coefficients (refreshed on commutation)
        self._A_neg = np.zeros(shape)    # drive offset while i < 0
        self._A_pos = np.zeros(shape)    # drive offset otherwise
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
        self._dt_x = np.empty(rows)
        self._dt_half_x = np.empty(rows)
        self._dt_i, self._dt_v = self._dt_x[:p], self._dt_x[p]
        # scratch
        self._i_sat_min = float(self.i_sat.min())
        self._f1 = np.empty(shape)
        self._f2 = np.empty(shape)
        self._f3 = np.empty(shape)
        self._f3_flat = self._f3.reshape(-1)
        self._acc = np.empty(shape)
        self._acc_sum = self._acc[-1]   # running phase sum, all phases
        self._b1 = np.empty(shape, dtype=bool)
        self._b2 = np.empty(shape, dtype=bool)
        self._k1, self._k1_i, self._k1_v, _ = _rows(np.empty(rows))
        self._k2, self._k2_i, self._k2_v, _ = _rows(np.empty(rows))
        self._mid, self._mid_i, self._mid_v, _ = _rows(np.empty(rows))
        #: load resistance of slopes primed into ``_k1`` by
        #: :meth:`prime_k1`; None when the next step evaluates them
        self._k1_r: Optional[np.ndarray] = None
        self._n1 = np.empty(n)
        self._n2 = np.empty(n)

    def _refresh_switch(self) -> None:
        """Rebuild all conduction-path coefficients (initialisation)."""
        self._k1_r = None
        pmos, nmos = self._pmos, self._nmos
        cond = np.logical_or(pmos, nmos, out=self._cond)
        np.logical_not(cond, out=self._off_b)
        self._pmos_f[:] = pmos
        # conducting phases: v_drive = B*i + A  (exactly the scalar forms:
        # PMOS v_in - i*(dcr+r_p); NMOS -i*(dcr+r_n)); an open phase
        # conducts through a body diode: v_drive = B*i + A_neg (PMOS
        # diode, i < 0) or B*i + A_pos (NMOS diode, i > 0), B = -dcr
        a = np.where(pmos, self._vin, 0.0)
        self._A_neg[:] = np.where(cond, a, self._vin_pvd)
        self._A_pos[:] = np.where(cond, a, self._nvd)
        self._B[:] = np.where(pmos, self._n_dcr_rp,
                              np.where(nmos, self._n_dcr_rn, self._n_dcr))

    def _update_switch_entry(self, i: int, k: int) -> None:
        """Refresh one lane-phase's coefficients after a commutation."""
        self._k1_r = None
        p = bool(self._pmos[k, i])
        nm = bool(self._nmos[k, i])
        cond = p or nm
        self._cond[k, i] = cond
        self._off_b[k, i] = not cond
        self._pmos_f[k, i] = 1.0 if p else 0.0
        a = self._vin[k, i] if p else 0.0
        self._A_neg[k, i] = a if cond else self._vin_pvd[k, i]
        self._A_pos[k, i] = a if cond else self._nvd[k, i]
        if p:
            self._B[k, i] = self._n_dcr_rp[k, i]
        elif nm:
            self._B[k, i] = self._n_dcr_rn[k, i]
        else:
            self._B[k, i] = self._n_dcr[k, i]

    # ------------------------------------------------------------------
    # Dynamics (mirrors MultiphasePowerStage step-for-step)
    # ------------------------------------------------------------------
    def _derivatives(self, t, i: np.ndarray, v: np.ndarray,
                     didt_out: np.ndarray, dvdt_out: np.ndarray,
                     _lt=np.less, _eq=np.equal, _mul=np.multiply,
                     _add=np.add, _sub=np.subtract, _div=np.divide,
                     _abs=np.abs, _and=np.logical_and, _copyto=np.copyto,
                     _max=np.maximum.reduce,
                     _acc=np.add.accumulate) -> np.ndarray:
        """Write di/dt (``(P, N)`` rows ``i``) and dv/dt (``(N,)`` row
        ``v``) into the out arrays; return r_load(t)."""
        neg = _lt(i, self._zeros, out=self._b1)
        # drive offset by current sign: the body-diode drop on open
        # phases, the switch term on conducting ones
        f2 = _mul(self._B, i, out=self._f2)
        f1 = _add(f2, self._A_pos, out=self._f1)
        _add(f2, self._A_neg, out=f1, where=neg)    # v_drive
        _sub(f1, v, out=f1)                          # v_drive - v_out
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
        idle = _eq(i, self._zeros, out=self._b1)
        _and(idle, self._off_b, out=idle)
        _copyto(didt_out, self._zeros, where=idle)

        r_load = self.resistance(t)
        _acc(i, axis=0, out=self._acc)               # in phase order
        _div(v, r_load, out=self._n2)
        n1 = _sub(self._acc_sum, self._n2, out=self._n1)
        _div(n1, self.c_out, out=dvdt_out)
        return r_load

    def prime_k1(self, t: np.ndarray):
        """Evaluate the slopes at the current state and time ``t`` into
        the RK2 first-stage buffer and return them as ``(di/dt, dv/dt)``
        (``(P, N)`` phase rows and the ``(N,)`` voltage row).

        The next :meth:`step` (which must start from the same ``t``)
        reuses them instead of evaluating its first stage again, unless
        a commutation (:meth:`_update_switch_entry`,
        :meth:`_refresh_switch`) rewrote the switch tables in between.
        The adaptive planner reads its crossing slopes this way.
        """
        _, i, v, _ = self._now
        self._k1_r = self._derivatives(t, i, v, self._k1_i, self._k1_v)
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
        for i, a_neg, a_pos, b, cond, ind in zip(
                cur, self._A_neg[:, lane].tolist(),
                self._A_pos[:, lane].tolist(), self._B[:, lane].tolist(),
                self._cond[:, lane].tolist(),
                self.inductance[:, lane].tolist()):
            if i < 0.0:
                a = a_neg
            elif i > 0.0 or cond:
                a = a_pos
            else:
                didt.append(0.0)   # discontinuous conduction: coil is open
                continue
            didt.append((b * i + a - v) / ind)
        total = 0.0   # in order, as in the scalar twin
        for i in cur:
            total += i
        dvdt = (total - v / self.loads[lane].resistance(t)) \
            / self.c_out.item(lane)
        return cur, didt, v, dvdt

    def step(self, t, dt,
             err_i_out: Optional[np.ndarray] = None,
             err_v_out: Optional[np.ndarray] = None,
             _mul=np.multiply, _add=np.add, _sub=np.subtract,
             _div=np.divide, _abs=np.abs, _gt=np.greater,
             _le=np.less_equal, _or=np.logical_or, _and=np.logical_and,
             _copyto=np.copyto, _max=np.maximum.reduce,
             _acc=np.add.accumulate) -> None:
        """Advance every lane by ``dt`` with an explicit midpoint (RK2) step.

        Identical semantics to the scalar model: switch states held across
        the step; body-diode conduction clamped at the zero crossing;
        trapezoidal energy bookkeeping on the accepted step.

        ``t`` / ``dt`` are scalars in lock-step operation, or ``(N,)``
        per-lane arrays when the adaptive stepper advances each lane on
        its own grid (they broadcast along the lane axis; a lane with
        ``dt == 0`` is a bit-exact no-op).  First-stage slopes primed by
        :meth:`prime_k1` are used as they are.
        When ``err_i_out`` / ``err_v_out`` are given, the embedded
        RK2(1) per-lane error estimates ``max_k |dt*(k2-k1)|`` (currents)
        and ``|dt*(k2-k1)|`` (voltage) are written into them.
        """
        if isinstance(dt, np.ndarray):
            half = 0.5 * dt
            dt_x = dt_i = dt_v = dt
            t_mid = t + half
        else:
            if dt != self._dt_key:
                # full arrays of the same doubles: bit-identical products
                self._dt_x.fill(dt)
                self._dt_half_x.fill(0.5 * dt)
                self._dt_key = dt
            dt_x, half = self._dt_x, self._dt_half_x
            dt_i, dt_v = self._dt_i, self._dt_v
            t_mid = t + 0.5 * dt
        now, then = self._now, self._then
        x, i0, v0, _ = now
        x1, i1, v1, _ = then

        r_load = self._k1_r
        if r_load is None:
            r_load = self._derivatives(t, i0, v0, self._k1_i, self._k1_v)
        else:
            self._k1_r = None
        mid = _mul(self._k1, half, out=self._mid)
        _add(x, mid, out=mid)
        self._derivatives(t_mid, self._mid_i, self._mid_v,
                          self._k2_i, self._k2_v)
        _mul(self._k2, dt_x, out=x1)
        _add(x, x1, out=x1)

        # Body-diode conduction can only decay the current; a sign flip or
        # magnitude growth means the diode stopped: the coil opens at
        # exactly 0.0.  Conducting phases are never clamped, and a NaN
        # current fails both tests and stays NaN, as in the scalar stage.
        f1 = _mul(i0, i1, out=self._f1)
        drop = _le(f1, self._zeros, out=self._b1)
        a0 = _abs(i0, out=self._f1)
        a1 = _abs(i1, out=self._f2)
        _or(drop, _gt(a1, a0, out=self._b2), out=drop)
        _and(drop, self._off_b, out=drop)
        _copyto(i1, self._zeros, where=drop)

        if self.track_energy:
            # Trapezoidal energy bookkeeping on the accepted step:
            # 0.5*(i0*i0 + i1*i1)*dcr*dt per phase, (v_in*0.5)*(i0 + i1)*dt
            # summed over PMOS phases, 0.5*(v0*v0 + v1*v1)/r_load*dt
            f1 = _mul(i0, i0, out=self._f1)
            _add(f1, _mul(i1, i1, out=self._f2), out=f1)
            _mul(f1, self._half_np, out=f1)
            _mul(f1, self.dcr, out=f1)
            _mul(f1, dt_i, out=f1)
            _add(self._coil_loss, f1, out=self._coil_loss)

            f2 = _add(i0, i1, out=self._f2)
            _mul(self._vin_half, f2, out=f2)
            _mul(f2, dt_i, out=f2)
            _mul(f2, self._pmos_f, out=f2)
            _acc(f2, axis=0, out=self._acc)
            _add(self.energy_in_j, self._acc_sum, out=self.energy_in_j)

            e = _mul(v0, v0, out=self._n1)
            _add(e, _mul(v1, v1, out=self._n2), out=e)
            _mul(e, self._half_n, out=e)
            _div(e, r_load, out=e)
            _mul(e, dt_v, out=e)
            _add(self.energy_out_j, e, out=self.energy_out_j)

        # Commit by buffer swap (views read the attributes afresh).
        self._now, self._then = then, now
        self._publish()

        if err_i_out is not None:
            # embedded RK2(1) estimate: |dt * (k2 - k1)|, worst phase
            d = _sub(self._k2, self._k1, out=self._mid)
            _abs(d, out=d)
            _max(self._mid_i, axis=0, out=err_i_out)
            err_i_out *= dt_v
            _mul(self._mid_v, dt_v, out=err_v_out)

    def coil_losses_j(self) -> np.ndarray:
        """Per-lane coil conduction energy loss so far (joule): each
        lane's phases added in order, as the scalar twin's
        :meth:`~repro.analog.buck.MultiphasePowerStage.coil_losses_j`."""
        return np.add.accumulate(self._coil_loss, axis=0)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VectorizedPowerStage(lanes={self.n_lanes}, "
                f"phases={self.n_phases})")
