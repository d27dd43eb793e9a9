"""Shared controller parameters and the sensor-facing interface contract.

Both controllers consume the same sensor surface (Fig. 2a):

- ``sensors.hl/.uv/.ov`` — comparator objects with an ``.output`` Signal;
- ``sensors.oc[k]/.zc[k]`` — per-phase current comparators;
- ``sensors.set_ov_mode(k, on)`` — swap phase ``k``'s OC/ZC references
  for over-voltage operation.

:class:`repro.analog.sensors.SensorBank` implements this; tests use light
stubs (see ``tests/control/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.core import Simulator
from ..sim.signal import Signal
from ..sim.units import NS


@dataclass
class BuckControlParams:
    """Regulation-policy timing constants shared by both controllers.

    The defaults suit the Fig. 6 operating point (3.3 V from 5 V, 4.7 uH
    coils, ~3 MHz effective switching).
    """

    # PMIN/NMIN below the synchronous latency scale: the paper does not
    # publish them, and a larger PMIN floors every controller's current
    # overshoot at pmin*slew, masking exactly the latency effect the
    # evaluation measures (the PMIN ablation in
    # benchmarks/test_bench_ablations.py shows it).
    pmin: float = 2 * NS         #: minimum PMOS ON time
    nmin: float = 3 * NS         #: minimum NMOS ON time
    pext: float = 40 * NS        #: PMOS ON extension, first cycle of a UV episode
    phase_dwell: float = 150 * NS  #: token/activation dwell per phase

    def __post_init__(self) -> None:
        for name in ("pmin", "nmin", "pext", "phase_dwell"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


class StubComparator:
    """Sensor stand-in for controller unit tests and latency measurement:
    a bare drivable output signal."""

    def __init__(self, sim: Simulator, name: str, init: bool = False):
        self.output = Signal(sim, name, init=init)


class StubSensors:
    """A full sensor surface whose outputs the test drives directly."""

    def __init__(self, sim: Simulator, n_phases: int):
        self.hl = StubComparator(sim, "hl")
        self.uv = StubComparator(sim, "uv")
        self.ov = StubComparator(sim, "ov")
        self.oc = [StubComparator(sim, f"oc{k}") for k in range(n_phases)]
        self.zc = [StubComparator(sim, f"zc{k}") for k in range(n_phases)]
        self._ov_mode = [False] * n_phases
        self.mode_changes: List[tuple] = []

    def set_ov_mode(self, phase_index: int, on: bool) -> None:
        self._ov_mode[phase_index] = on
        self.mode_changes.append((phase_index, on))

    def ov_mode(self, phase_index: int) -> bool:
        return self._ov_mode[phase_index]


class StubGates:
    """Gate-driver stand-in: immediate acks after a fixed delay."""

    def __init__(self, sim: Simulator, n_phases: int, t_gate: float = 1 * NS):
        self.gp: List[Signal] = []
        self.gn: List[Signal] = []
        self.gp_ack: List[Signal] = []
        self.gn_ack: List[Signal] = []
        for k in range(n_phases):
            gp = Signal(sim, f"gp{k}")
            gn = Signal(sim, f"gn{k}")
            gpa = Signal(sim, f"gp_ack{k}")
            gna = Signal(sim, f"gn_ack{k}")
            gp.subscribe(lambda s, v, a=gpa: a.set(v, t_gate))
            gn.subscribe(lambda s, v, a=gna: a.set(v, t_gate))
            self.gp.append(gp)
            self.gn.append(gn)
            self.gp_ack.append(gpa)
            self.gn_ack.append(gna)
