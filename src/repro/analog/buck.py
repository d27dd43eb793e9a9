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
                 "current", "pmos_on", "nmos_on", "coil_loss_j",
                 "switch_count")

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
        #: number of transistor state changes (for switching-loss estimates)
        self.switch_count = 0

    # ------------------------------------------------------------------
    # Switch control (called by the gate driver)
    # ------------------------------------------------------------------
    def set_pmos(self, on: bool) -> None:
        if on and self.nmos_on:
            raise ShortCircuitError(
                f"phase {self.index}: PMOS turned ON while NMOS conducts"
            )
        if on != self.pmos_on:
            self.switch_count += 1
        self.pmos_on = on

    def set_nmos(self, on: bool) -> None:
        if on and self.pmos_on:
            raise ShortCircuitError(
                f"phase {self.index}: NMOS turned ON while PMOS conducts"
            )
        if on != self.nmos_on:
            self.switch_count += 1
        self.nmos_on = on

    def conducting(self) -> bool:
        """True when the coil can carry current (switch on or diode path)."""
        return self.pmos_on or self.nmos_on or self.current != 0.0

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

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def total_current(self) -> float:
        """Sum of all coil currents feeding the output node."""
        return sum(p.current for p in self.phases)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _derivatives(self, t: float, currents: Sequence[float],
                     v_out: float) -> Tuple[List[float], float]:
        """Coil current slopes and dv/dt at ``(currents, v_out)``."""
        v_in = self.v_in
        didt = []
        total = 0.0   # in order: sum() is compensated from Python 3.12
        for p, i in zip(self.phases, currents):
            total += i
            coil = p.coil
            if p.pmos_on:
                v_drive = v_in - i * (coil.dcr + p.r_pmos)
            elif p.nmos_on:
                v_drive = -i * (coil.dcr + p.r_nmos)
            elif i > 0.0:
                # freewheeling through the NMOS body diode
                v_drive = -p.v_diode - i * coil.dcr
            elif i < 0.0:
                # returning through the PMOS body diode
                v_drive = v_in + p.v_diode - i * coil.dcr
            else:
                didt.append(0.0)  # discontinuous conduction: coil is open
                continue
            # below i_sat the derating is exactly nominal (a <= b gives
            # a / b <= 1.0); NaN takes the derating path
            if abs(i) <= coil.i_sat:
                didt.append((v_drive - v_out) / coil.inductance)
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
        """
        currents0 = [p.current for p in self.phases]
        v0 = self.v_out

        half = 0.5 * dt
        k1_i, k1_v = self._derivatives(t, currents0, v0)
        mid_i = [i + half * d for i, d in zip(currents0, k1_i)]
        mid_v = v0 + half * k1_v
        k2_i, k2_v = self._derivatives(t + half, mid_i, mid_v)

        new_v = v0 + dt * k2_v
        e_in = 0.0   # this step's input energy, phase by phase
        for phase, i0, d in zip(self.phases, currents0, k2_i):
            i1 = i0 + dt * d
            if not phase.pmos_on and not phase.nmos_on:
                # Body-diode conduction can only decay the current; a sign
                # flip or magnitude growth means the diode stopped (or the
                # RK2 midpoint straddled the zero-current discontinuity):
                # the coil opens at exactly zero.
                if i0 * i1 <= 0.0 or abs(i1) > abs(i0):
                    i1 = 0.0
            phase.current = i1
            # Trapezoidal energy bookkeeping on the accepted step.
            i_mid_sq = 0.5 * (i0 * i0 + i1 * i1)
            phase.coil_loss_j += i_mid_sq * phase.coil.dcr * dt
            if phase.pmos_on:
                e_in += self.v_in * 0.5 * (i0 + i1) * dt
        self.energy_in_j += e_in

        r_load = self.load.resistance(t)
        v_mid_sq = 0.5 * (v0 * v0 + new_v * new_v)
        self.energy_out_j += v_mid_sq / r_load * dt
        self.v_out = new_v
        err_i = max([abs(b - a) for a, b in zip(k1_i, k2_i)]) * dt
        err_v = abs(k2_v - k1_v) * dt
        return err_i, err_v

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
