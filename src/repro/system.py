"""Top-level system assembly: a complete closed-loop buck simulation.

:class:`BuckSystem` wires the analog power stage, sensor bank, gate
drivers, the analog solver, and one of the two controllers into a single
simulator, mirroring the paper's AMS testbench (Sec. V).

The public front door for running simulations is
:class:`repro.session.Session` — it owns backend selection, worker
sharding, and the content-addressed result cache:

>>> from repro import Session
>>> session = Session()
>>> result = session.run({"controller": "async", "sim_time": 10e-6})
>>> result.peak_coil_current < 1.0
True

:meth:`BuckSystem.measure` executes an already-built system
(waveform-level work keeps a live handle).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle / lazy-NumPy guard
    from .trace import TraceSet

from .analog.buck import MultiphasePowerStage, make_power_stage
from .analog.coil import Coil, make_coil
from .analog.gate_driver import GateDriverBank
from .analog.load import LoadProfile
from .analog.sensors import BuckReferences, SensorBank
from .analog.solver import AnalogSolver
from .analog.stepping import (DEFAULT_ATOL_I, DEFAULT_ATOL_V, DEFAULT_RTOL,
                              GATING_MODES, STEPPING_MODES, SteppingPolicy)
from .control.async_controller import AsyncMultiphaseController, AsyncTimings
from .control.params import BuckControlParams
from .control.sync_controller import SyncMultiphaseController
from .digital.synchronizer import T_CLK_Q as SYNC_T_CLK_Q
from .sim.core import Simulator
from .sim.units import MHZ, NS, UH, US


@dataclass
class SystemConfig:
    """Everything needed to reproduce one simulation run of the paper."""

    controller: str = "async"          #: 'async' or 'sync'
    fsm_frequency: float = 333 * MHZ   #: sync controller clock (ignored for async)
    n_phases: int = 4
    inductance: float = 4.7 * UH
    coil: Optional[Coil] = None        #: overrides ``inductance`` when given
    v_in: float = 5.0
    c_out: float = 0.47e-6
    v_out0: float = 0.0                #: 0 = cold startup (Fig. 6)
    load: Optional[LoadProfile] = None #: default: Fig. 6 scenario
    refs: Optional[BuckReferences] = None
    params: Optional[BuckControlParams] = None
    timings: Optional[AsyncTimings] = None
    dt: float = 1.0 * NS               #: analog solver micro-step
    stepping: str = "fixed"            #: 'fixed' or 'adaptive' (error-controlled)
    dt_min: Optional[float] = None     #: adaptive floor (default dt/4)
    dt_max: Optional[float] = None     #: adaptive ceiling (default 64*dt)
    rtol: float = DEFAULT_RTOL         #: adaptive relative tolerance
    atol_i: float = DEFAULT_ATOL_I     #: adaptive absolute current tol (A)
    atol_v: float = DEFAULT_ATOL_V     #: adaptive absolute voltage tol (V)
    gating: str = "auto"               #: 'auto' or 'off' — clock-edge fast-forward
    sensor_delay: float = 1.0 * NS
    sensor_noise: float = 0.0
    t_gate: float = 1.0 * NS
    sim_time: float = 10 * US
    seed: int = 0
    trace: bool = True                 #: keep waveforms (turn off for sweeps)

    def __post_init__(self) -> None:
        if self.controller not in ("async", "sync"):
            raise ValueError("controller must be 'async' or 'sync'")
        try:
            operator.index(self.n_phases)   # what range() will need
        except TypeError:
            raise ValueError(
                f"n_phases must be an integer (got {self.n_phases!r})"
            ) from None
        if self.n_phases < 1:
            raise ValueError("need at least one phase")
        positive = ("v_in", "c_out", "dt", "sim_time", "fsm_frequency")
        if self.coil is None:
            positive += ("inductance",)
        for name in positive:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):   # NaN fails too
                raise ValueError(
                    f"{name} must be finite and positive (got {value!r})")
        f = self.fsm_frequency
        if self.controller == "sync" and not 0.5 / f > SYNC_T_CLK_Q:
            # SynchronizerBank.settled is exact only while a sync-edge
            # settle applies before the FSM edge half a period later
            raise ValueError(
                f"fsm_frequency must keep half the clock period above the "
                f"synchronizer flops' clock-to-Q delay ({SYNC_T_CLK_Q!r} s),"
                f" i.e. below {0.5 / SYNC_T_CLK_Q:.4g} Hz (got {f!r})")
        if self.dt > self.sim_time:
            raise ValueError(f"dt ({self.dt!r}) must not exceed "
                             f"sim_time ({self.sim_time!r})")
        for name in ("sensor_delay", "sensor_noise", "t_gate"):
            value = getattr(self, name)
            if not value >= 0:   # also rejects NaN
                raise ValueError(
                    f"{name} must be non-negative (got {value!r})")
        if self.stepping not in STEPPING_MODES:
            raise ValueError(
                f"stepping must be one of {STEPPING_MODES}, "
                f"got {self.stepping!r}")
        if self.gating not in GATING_MODES:
            raise ValueError(
                f"gating must be one of {GATING_MODES}, "
                f"got {self.gating!r}")


@dataclass
class RunResult:
    """Headline measurements of one run (Fig. 6 / Fig. 7 quantities)."""

    controller: str
    v_final: float
    peak_coil_current: float        #: max |i_L| over any phase (Fig. 7a/b)
    ripple: float                   #: steady-state V_out peak-to-peak (Fig. 6)
    coil_loss_w: float              #: mean coil conduction loss (Fig. 7c)
    efficiency: float
    ov_events: int                  #: over-voltage episodes observed
    cycles: List[int] = field(default_factory=list)
    metastable_events: int = 0
    solver_ticks: int = 0           #: analog micro-steps the run committed
    events_delivered: int = 0       #: kernel events fired through the loop
    clock_edges_simulated: int = 0  #: controller clock edges delivered
    clock_edges_skipped: int = 0    #: controller clock edges fast-forwarded
    #: traced waveforms (a :class:`repro.trace.TraceSet`) — attached by
    #: traced runs, ``None`` otherwise; compared exactly by dataclass eq
    trace: Optional["TraceSet"] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-primitive form (JSON-safe; floats round-trip exactly
        through ``repr``, so serialization is bit-preserving).  A traced
        result embeds its waveforms as the TraceSet's JSON form; the
        result cache stores them as npz arrays instead."""
        payload: Dict[str, Any] = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__ if name != "trace"
        }
        payload["cycles"] = list(self.cycles)
        if self.trace is not None:
            payload["trace"] = self.trace.to_jsonable()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        fields = dict(payload)
        unknown = set(fields) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"RunResult payload has unknown fields {sorted(unknown)}")
        fields["cycles"] = [int(c) for c in fields.get("cycles", [])]
        trace = fields.get("trace")
        if trace is not None and not hasattr(trace, "to_jsonable"):
            from .trace import TraceSet
            fields["trace"] = TraceSet.from_jsonable(trace)
        return cls(**fields)


class BuckSystem:
    """A fully wired buck + controller co-simulation."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.sim = Simulator(seed=config.seed)
        coil = config.coil or make_coil(config.inductance)
        load = config.load or LoadProfile.fig6_scenario()
        self.stage: MultiphasePowerStage = make_power_stage(
            config.n_phases, coil, v_in=config.v_in, c_out=config.c_out,
            load=load, v_out0=config.v_out0)
        self.sensors = SensorBank(self.sim, self.stage,
                                  refs=config.refs,
                                  delay=config.sensor_delay,
                                  noise=config.sensor_noise,
                                  trace=config.trace)
        self.gates = GateDriverBank(self.sim, self.stage,
                                    t_gate=config.t_gate, trace=config.trace)
        policy = SteppingPolicy.from_config(config)
        self.solver = AnalogSolver(self.sim, self.stage, self.sensors,
                                   dt=config.dt, trace=config.trace,
                                   policy=policy)
        if policy.adaptive:
            if config.sensor_delay <= 0 or config.t_gate <= 0:
                raise ValueError(
                    "adaptive stepping needs positive sensor_delay and "
                    "t_gate (the guard window that keeps comparator edges "
                    "exact is derived from them)")
            # the step end snaps onto every scheduled transistor flip
            for driver in self.gates.drivers:
                driver.on_commute = self.solver.note_commutation
        params = config.params or BuckControlParams()
        if config.controller == "sync":
            self.controller = SyncMultiphaseController(
                self.sim, self.sensors, self.gates, config.n_phases,
                config.fsm_frequency, params=params, trace=config.trace,
                gating=config.gating,
                crossing_bound=self.solver.crossing_bound)
        else:
            self.controller = AsyncMultiphaseController(
                self.sim, self.sensors, self.gates, config.n_phases,
                params=params, timings=config.timings, trace=config.trace)
        self.solver.start()
        self._ran = False

    # ------------------------------------------------------------------
    def measure(self, duration: Optional[float] = None,
                settle: Optional[float] = None) -> RunResult:
        """Run the simulation and collect the headline measurements.

        ``settle``: statistics (ripple, peak current, losses) are measured
        only *after* this time, excluding the startup transient — defaults
        to 20% of the run.
        """
        duration = duration if duration is not None else self.config.sim_time
        settle = settle if settle is not None else 0.2 * duration
        if settle < 0:
            raise ValueError(f"settle cannot be negative (got {settle:g})")
        if settle >= duration:
            raise ValueError(
                f"settle ({settle:g} s) must be smaller than the run "
                f"duration ({duration:g} s): the run would overshoot the "
                f"requested end time and leave a zero-span measurement "
                f"window")
        t0 = self.sim.now
        loss0 = self.stage.coil_losses_j()
        peak_startup = 0.0
        if settle > 0:
            self.sim.run_until(t0 + settle)
            self.solver.sync()   # adaptive: integrate up to the boundary
            # Ripple and losses exclude the startup transient, but the
            # peak current must not (Fig. 7's peaks are set by the
            # startup/HL transients, where reaction latency bites).
            peak_startup = self.solver.peak_coil_current()
            self.solver.reset_measurements()
            loss0 = self.stage.coil_losses_j()
        self.sim.run_until(t0 + duration)
        self.solver.sync()
        self._ran = True

        vp = self.solver.v_probe
        ripple = (vp.maximum - vp.minimum) if vp.maximum >= vp.minimum else 0.0
        span = duration - settle
        loss_w = (self.stage.coil_losses_j() - loss0) / span if span > 0 else 0.0
        return RunResult(
            controller=self.config.controller,
            v_final=self.stage.v_out,
            peak_coil_current=max(peak_startup,
                                  self.solver.peak_coil_current()),
            ripple=ripple,
            coil_loss_w=loss_w,
            efficiency=self.stage.efficiency(),
            ov_events=len(self.sensors.ov.output.edges("rise")),
            cycles=list(self.controller.cycles_started),
            metastable_events=self.controller.metastable_events(),
            solver_ticks=self.solver.tick_count,
            events_delivered=self.sim.events_delivered,
            clock_edges_simulated=getattr(
                self.controller, "clock_edges_simulated", 0),
            clock_edges_skipped=getattr(
                self.controller, "clock_edges_skipped", 0),
            trace=self.trace_set() if self.config.trace else None,
        )

    # ------------------------------------------------------------------
    def trace_set(self) -> "TraceSet":
        """The full traced run as a :class:`~repro.trace.TraceSet`:
        analog waveforms (``v_load`` / ``i_coil{k}`` / ``i_total``) plus
        every Fig. 6 digital signal (comparators, gate drives, token or
        activator state) as bool channels — the canonical, cacheable,
        VCD-exportable representation.  ``meta`` carries the run's
        reference voltage and controller so post-hoc measurements
        (e.g. overshoot vs ``v_ref``) need nothing but the trace."""
        from .trace import add_signals
        ts = add_signals(self.solver.trace_set(), self.waveform_signals())
        ts.meta["v_ref"] = self.sensors.refs.v_ref
        ts.meta["controller"] = self.config.controller
        return ts

    def waveform_signals(self):
        """The Fig. 6 trace set (for VCD export / plotting)."""
        sensors = self.sensors
        signals = [sensors.hl.output, sensors.uv.output, sensors.ov.output]
        signals += [c.output for c in sensors.oc]
        signals += [c.output for c in sensors.zc]
        signals += self.gates.gp + self.gates.gn
        if self.config.controller == "async":
            signals += self.controller.token_at
        else:
            signals += self.controller.activator.act
        return signals

    def probes(self):
        """Analog probes: load voltage and per-coil currents."""
        return [self.solver.v_probe] + self.solver.i_probes
