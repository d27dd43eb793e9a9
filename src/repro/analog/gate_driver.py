"""Gate drivers: the gp/gn -> power transistor -> ack path.

The controller requests transistor states on its ``gp`` / ``gn`` outputs.
Real power FETs take time to traverse their gate threshold (V_pmos /
V_nmos in Fig. 2a), and the controller is *explicitly notified* via
``gp_ack`` / ``gn_ack`` when the crossing happens — this is how both
controllers guarantee non-overlap without analog knowledge.

:class:`GateDriver` models that path with a configurable gate delay and
asserts the non-overlap rule at the conduction level (via
:meth:`BuckPhase.set_pmos` raising :class:`ShortCircuitError`).
"""

from __future__ import annotations

from typing import List

from ..sim.core import Simulator
from ..sim.signal import Signal
from ..sim.units import NS
from .buck import BuckPhase, MultiphasePowerStage


class GateDriver:
    """Drive one phase's power transistors from gp/gn request signals.

    Parameters
    ----------
    t_gate:
        Delay from a gate request edge to the transistor actually changing
        conduction state (and the ack following).
    """

    def __init__(self, sim: Simulator, phase: BuckPhase,
                 gp: Signal, gn: Signal, t_gate: float = 1.0 * NS,
                 trace: bool = True):
        self.sim = sim
        self.phase = phase
        self.gp = gp
        self.gn = gn
        self.t_gate = t_gate
        #: optional ``callback(commutation_time)`` fired whenever a
        #: transistor flip gets scheduled — the adaptive analog stepper
        #: subscribes so it can snap its step end onto the flip instant.
        self.on_commute = None
        k = phase.index
        self.gp_ack = Signal(sim, f"gp_ack{k}", init=False, trace=trace)
        self.gn_ack = Signal(sim, f"gn_ack{k}", init=False, trace=trace)
        gp.subscribe(self._on_gp)
        gn.subscribe(self._on_gn)

    def _on_gp(self, _sig: Signal, value: bool) -> None:
        self.sim.schedule(self.t_gate, lambda: self._apply_pmos(value))
        if self.on_commute is not None:
            self.on_commute(self.sim.now + self.t_gate)

    def _on_gn(self, _sig: Signal, value: bool) -> None:
        self.sim.schedule(self.t_gate, lambda: self._apply_nmos(value))
        if self.on_commute is not None:
            self.on_commute(self.sim.now + self.t_gate)

    def _apply_pmos(self, on: bool) -> None:
        self.phase.set_pmos(on)       # raises ShortCircuitError on overlap
        self.gp_ack._apply(on)

    def _apply_nmos(self, on: bool) -> None:
        self.phase.set_nmos(on)
        self.gn_ack._apply(on)


class GateDriverBank:
    """One :class:`GateDriver` per phase of a power stage.

    Creates the gp/gn request signals too, so a controller just drives
    ``bank.gp[k]`` / ``bank.gn[k]`` and listens to the acks.
    """

    def __init__(self, sim: Simulator, stage: MultiphasePowerStage,
                 t_gate: float = 1.0 * NS, trace: bool = True):
        self.gp: List[Signal] = []
        self.gn: List[Signal] = []
        self.drivers: List[GateDriver] = []
        for phase in stage.phases:
            k = phase.index
            gp = Signal(sim, f"gp{k}", init=False, trace=trace)
            gn = Signal(sim, f"gn{k}", init=False, trace=trace)
            self.gp.append(gp)
            self.gn.append(gn)
            self.drivers.append(GateDriver(sim, phase, gp, gn, t_gate, trace))
        self.gp_ack: List[Signal] = [d.gp_ack for d in self.drivers]
        self.gn_ack: List[Signal] = [d.gn_ack for d in self.drivers]
