"""Piecewise-linear ODE model of the multiphase buck power stage.

The paper modelled the analog buck in Verilog-A and simulated it with an
AMS testbench (Sec. V).  Here the same network is a piecewise-linear ODE:

- each phase: coil current ``di/dt = (v_sw - v_out - i*R_series) / L(i)``
  where the switch-node voltage ``v_sw`` depends on which power transistor
  conducts (PMOS -> V_in, NMOS -> 0, both off -> body diode or open);
- output: ``C dv/dt = sum(i_k) - v_out / R_load(t)``.

The model enforces the paper's cardinal safety rule — *the PMOS and NMOS
transistors of a phase must never be ON at the same time* — by raising
:class:`ShortCircuitError` the moment a controller violates it.

Energy bookkeeping (input energy, delivered energy, per-coil conduction
loss) accumulates during integration so that Fig. 7c (inductor losses) and
the efficiency claims can be evaluated without post-processing waveforms.

A stage's input rail and its phases' parameters (coil, on-resistances,
diode drop) are fixed at construction: the stage reads them once into
per-phase constants, and the integrator works from those.  What changes
during a run is the state — coil currents, output voltage, conduction
states — and the load, which is read at every step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .coil import Coil
from .load import LoadProfile


class ShortCircuitError(RuntimeError):
    """Both power transistors of one phase were commanded ON simultaneously."""


class BuckPhase:
    """One phase: PMOS/NMOS half-bridge driving a coil.

    The ``pmos_on`` / ``nmos_on`` flags are the *conduction* states (after
    gate-driver delay), not the controller's request signals.
    """

    __slots__ = ("index", "coil", "r_pmos", "r_nmos", "v_diode",
                 "current", "pmos_on", "nmos_on", "coil_loss_j")

    def __init__(self, index: int, coil: Coil, r_pmos: float = 0.05,
                 r_nmos: float = 0.04, v_diode: float = 0.7):
        self.index = index
        self.coil = coil
        self.r_pmos = r_pmos
        self.r_nmos = r_nmos
        self.v_diode = v_diode
        self.current = 0.0
        self.pmos_on = False
        self.nmos_on = False
        #: accumulated coil conduction loss (joule)
        self.coil_loss_j = 0.0

    # ------------------------------------------------------------------
    # Switch control (called by the gate driver)
    # ------------------------------------------------------------------
    def set_pmos(self, on: bool) -> None:
        if on and self.nmos_on:
            raise ShortCircuitError(
                f"phase {self.index}: PMOS turned ON while NMOS conducts"
            )
        self.pmos_on = on

    def set_nmos(self, on: bool) -> None:
        if on and self.pmos_on:
            raise ShortCircuitError(
                f"phase {self.index}: NMOS turned ON while PMOS conducts"
            )
        self.nmos_on = on

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sw = "P" if self.pmos_on else ("N" if self.nmos_on else "-")
        return f"BuckPhase({self.index}, i={self.current:.4f}A, sw={sw})"


class MultiphasePowerStage:
    """N-phase buck power stage with shared output capacitor and load.

    Parameters
    ----------
    phases:
        The per-phase half-bridges (usually built by :func:`make_power_stage`).
    v_in:
        Input rail voltage.
    c_out:
        Output capacitance in farad.
    load:
        Load profile (piecewise-constant resistance over time).
    v_out0:
        Initial output voltage (0 models the paper's cold startup).
    """

    def __init__(self, phases: Sequence[BuckPhase], v_in: float = 5.0,
                 c_out: float = 0.47e-6, load: Optional[LoadProfile] = None,
                 v_out0: float = 0.0):
        if not phases:
            raise ValueError("power stage needs at least one phase")
        if v_in <= 0:
            raise ValueError("input voltage must be positive")
        if c_out <= 0:
            raise ValueError("output capacitance must be positive")
        self.phases: List[BuckPhase] = list(phases)
        self.v_in = v_in
        self.c_out = c_out
        self.load = load or LoadProfile.constant(6.0)
        self.v_out = v_out0
        #: energy delivered by the input rail (joule)
        self.energy_in_j = 0.0
        #: energy dissipated in the load (joule)
        self.energy_out_j = 0.0
        # per phase, in phase order: (phase, coil, DCR, DCR + R_pmos,
        # DCR + R_nmos, NMOS-diode drive -V_d, PMOS-diode drive V_in + V_d,
        # nominal L, i_sat) -- each sum formed as the slope formula forms it
        self._consts = [
            (p, p.coil, p.coil.dcr, p.coil.dcr + p.r_pmos,
             p.coil.dcr + p.r_nmos, -p.v_diode, v_in + p.v_diode,
             p.coil.inductance, p.coil.i_sat)
            for p in self.phases]

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _derivatives(self, t: float, currents: Sequence[float],
                     v_out: float) -> Tuple[List[float], float]:
        """Coil current slopes and dv/dt at ``(currents, v_out)``.

        This is the stage's slope function; :meth:`step` evaluates the
        same expressions inline, twice per step."""
        v_in = self.v_in
        didt = []
        total = 0.0   # in order: sum() is compensated from Python 3.12
        for (p, coil, dcr, r_p, r_n, v_fw, v_rev, ind, i_sat), i in zip(
                self._consts, currents):
            total += i
            if p.pmos_on:
                v_drive = v_in - i * r_p
            elif p.nmos_on:
                v_drive = -i * r_n
            elif i > 0.0:
                # freewheeling through the NMOS body diode
                v_drive = v_fw - i * dcr
            elif i < 0.0:
                # returning through the PMOS body diode
                v_drive = v_rev - i * dcr
            else:
                didt.append(0.0)  # discontinuous conduction: coil is open
                continue
            # below i_sat the derating is exactly nominal (a <= b gives
            # a / b <= 1.0); NaN takes the derating path
            if -i_sat <= i <= i_sat:
                didt.append((v_drive - v_out) / ind)
            else:
                didt.append((v_drive - v_out) / coil.effective_inductance(i))
        r_load = self.load.resistance(t)
        dvdt = (total - v_out / r_load) / self.c_out
        return didt, dvdt

    def step(self, t: float, dt: float) -> Tuple[float, float]:
        """Advance the state by ``dt`` using an explicit midpoint (RK2) step.

        Switch states are held constant across the step (the solver keeps
        ``dt`` below the gate-driver delay — or, in adaptive mode, snaps
        step ends onto commutation instants — so commutation lands on
        step boundaries).  Discontinuous conduction is handled by
        clamping: a phase with both transistors off whose current crosses
        zero inside the step ends the step at exactly zero.

        Returns the embedded RK2(1) local-error estimates
        ``(err_i, err_v)``: the worst per-phase ``|dt * (k2 - k1)|`` and
        the ``|dt * (k2 - k1)|`` of the output voltage — the difference
        between the committed midpoint step and its embedded Euler step.
        The fixed-step solver ignores them; the adaptive stepper uses
        them to size the next step.

        One pass per stage: the first loop takes the slopes ``k1`` of
        :meth:`_derivatives` at ``t``; the second takes each phase's
        midpoint slope ``k2`` at ``t + dt/2`` and commits that phase (the
        diode clamp, its coil loss, its input energy, its error term)
        before moving on.  Every sum runs in phase order, as in
        :meth:`_derivatives`, so the result is the same to the bit.
        """
        v_in = self.v_in
        resistance = self.load.resistance
        half = 0.5 * dt
        v0 = self.v_out
        consts = self._consts

        currents0 = []
        k1_i = []
        total = 0.0
        for p, coil, dcr, r_p, r_n, v_fw, v_rev, ind, i_sat in consts:
            i = p.current
            currents0.append(i)
            total += i
            if p.pmos_on:
                v_drive = v_in - i * r_p
            elif p.nmos_on:
                v_drive = -i * r_n
            elif i > 0.0:
                v_drive = v_fw - i * dcr
            elif i < 0.0:
                v_drive = v_rev - i * dcr
            else:
                k1_i.append(0.0)
                continue
            if -i_sat <= i <= i_sat:
                k1_i.append((v_drive - v0) / ind)
            else:
                k1_i.append((v_drive - v0) / coil.effective_inductance(i))
        r0 = resistance(t)
        k1_v = (total - v0 / r0) / self.c_out

        mid_v = v0 + half * k1_v
        total = 0.0
        e_in = 0.0    # this step's input energy, phase by phase
        err_i = None  # max() of the per-phase |k2 - k1|, first max kept
        for (p, coil, dcr, r_p, r_n, v_fw, v_rev, ind, i_sat), i0, k1 in zip(
                consts, currents0, k1_i):
            i = i0 + half * k1
            total += i
            pmos, nmos = p.pmos_on, p.nmos_on
            if pmos:
                v_drive = v_in - i * r_p
            elif nmos:
                v_drive = -i * r_n
            elif i > 0.0:
                v_drive = v_fw - i * dcr
            elif i < 0.0:
                v_drive = v_rev - i * dcr
            else:
                v_drive = None   # discontinuous conduction: coil is open
            if v_drive is None:
                k2 = 0.0
            elif -i_sat <= i <= i_sat:
                k2 = (v_drive - mid_v) / ind
            else:
                k2 = (v_drive - mid_v) / coil.effective_inductance(i)
            i1 = i0 + dt * k2
            if not pmos and not nmos:
                # Body-diode conduction can only decay the current; a sign
                # flip or magnitude growth means the diode stopped (or the
                # RK2 midpoint straddled the zero-current discontinuity):
                # the coil opens at exactly zero.
                if i0 * i1 <= 0.0 or abs(i1) > abs(i0):
                    i1 = 0.0
            p.current = i1
            # Trapezoidal energy bookkeeping on the accepted step.
            p.coil_loss_j += 0.5 * (i0 * i0 + i1 * i1) * dcr * dt
            if pmos:
                e_in += v_in * 0.5 * (i0 + i1) * dt
            err = abs(k2 - k1)
            if err_i is None or err > err_i:
                err_i = err
        k2_v = (total - mid_v / resistance(t + half)) / self.c_out

        new_v = v0 + dt * k2_v
        self.energy_in_j += e_in
        self.energy_out_j += 0.5 * (v0 * v0 + new_v * new_v) / r0 * dt
        self.v_out = new_v
        return err_i * dt, abs(k2_v - k1_v) * dt

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def coil_losses_j(self) -> float:
        """Total coil conduction energy loss so far (joule)."""
        total = 0.0   # in order, as in _derivatives
        for p in self.phases:
            total += p.coil_loss_j
        return total

    def efficiency(self) -> float:
        """Delivered-to-drawn energy ratio so far."""
        if self.energy_in_j <= 0:
            return 0.0
        return self.energy_out_j / self.energy_in_j

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MultiphasePowerStage(n={self.n_phases}, "
                f"v_out={self.v_out:.3f}V)")


def make_power_stage(n_phases: int, coil: Coil, v_in: float = 5.0,
                     c_out: float = 0.47e-6,
                     load: Optional[LoadProfile] = None,
                     v_out0: float = 0.0) -> MultiphasePowerStage:
    """Build an N-phase power stage with identical coils in every phase."""
    if n_phases < 1:
        raise ValueError("need at least one phase")
    phases = [BuckPhase(index=k, coil=coil) for k in range(n_phases)]
    return MultiphasePowerStage(phases, v_in=v_in, c_out=c_out, load=load,
                                v_out0=v_out0)
