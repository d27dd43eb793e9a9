"""Shared fixtures for the test suite.

The analog and control test modules used to carry copy-pasted setup
helpers (a seeded simulator, a small power stage, stub-sensor controller
rigs).  They live here now:

- ``sim`` / ``make_sim`` — a seeded :class:`Simulator` (and a factory for
  tests that need a specific seed or a second kernel);
- ``stage_factory`` / ``power_stage`` — :class:`MultiphasePowerStage`
  builders (``power_stage`` is the paper-default 4-phase 4.7 uH stage);
- ``run_stage`` — fixed-step integration helper for open-loop stage tests;
- ``paper_params`` — the paper-default :class:`BuckControlParams`;
- ``config_variant`` — a :class:`SystemConfig` with one named field moved
  to its ``CONFIG_ALTERNATIVES`` value (the key-coverage tests);
- ``analog_rig`` — stage + sensor bank + gate drivers + solver wired to a
  simulator (the closed-loop-without-controller rig);
- ``controller_rig`` — a controller over stub sensors/gates (the unit rig
  used by the reaction-latency style tests).

Every test also runs with ``REPRO_CACHE_DIR`` at one temporary
directory for the whole run: a bare ``code_fingerprint()`` keeps its
memo under the default cache root, and the suite must leave the
checkout clean.
"""

from dataclasses import dataclass, replace

import pytest

from repro.analog import (
    AnalogSolver,
    GateDriverBank,
    LoadProfile,
    MultiphasePowerStage,
    SensorBank,
    make_coil,
    make_power_stage,
)
from repro.control import (
    AsyncMultiphaseController,
    BuckControlParams,
    StubGates,
    StubSensors,
    SyncMultiphaseController,
)
from repro.analog.sensors import BuckReferences
from repro.control.async_controller import AsyncTimings
from repro.sim import MHZ, NS, UH, US, Simulator

#: a valid alternative value for every SystemConfig field.  The key tests
#: move each field in turn, so a field added to SystemConfig fails them
#: until it gets an entry here (and a keyed-or-per-lane decision).
CONFIG_ALTERNATIVES = {
    "controller": "sync",
    "fsm_frequency": 100 * MHZ,
    "n_phases": 2,
    "inductance": 1 * UH,
    "coil": make_coil(1 * UH),
    "v_in": 6.0,
    "c_out": 1e-6,
    "v_out0": 1.0,
    "load": LoadProfile.constant(9.0),
    "refs": BuckReferences(v_ref=3.2),
    "params": BuckControlParams(pmin=20 * NS),
    "timings": AsyncTimings(token_hop=0.4 * NS),
    "dt": 2 * NS,
    "stepping": "adaptive",
    "dt_min": 0.5 * NS,
    "dt_max": 8 * NS,
    "rtol": 1e-4,
    "atol_i": 1e-5,
    "atol_v": 1e-5,
    "gating": "off",
    "sensor_delay": 2 * NS,
    "sensor_noise": 0.004,
    "t_gate": 2 * NS,
    "sim_time": 2 * US,
    "seed": 1,
    "trace": True,
}


@pytest.fixture(scope="session", autouse=True)
def _isolated_default_cache_root(tmp_path_factory):
    """Point the default cache root (and so the bare fingerprint memo)
    away from the working directory, before any module fixture runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("default_cache_root")))
        yield


@pytest.fixture
def make_sim():
    """Factory for seeded simulators (default seed 0)."""
    def build(seed: int = 0) -> Simulator:
        return Simulator(seed=seed)
    return build


@pytest.fixture
def sim(make_sim) -> Simulator:
    """A fresh simulator with the default seed."""
    return make_sim()


@pytest.fixture
def stage_factory():
    """Factory for small power stages with constant loads."""
    def build(n: int = 1, l_uh: float = 4.7, v_in: float = 5.0,
              c_out: float = 0.47e-6, r_load: float = 6.0,
              v_out0: float = 0.0) -> MultiphasePowerStage:
        return make_power_stage(n, make_coil(l_uh * UH), v_in=v_in,
                                c_out=c_out,
                                load=LoadProfile.constant(r_load),
                                v_out0=v_out0)
    return build


@pytest.fixture
def power_stage(stage_factory) -> MultiphasePowerStage:
    """The paper-default stage: 4 phases, 4.7 uH coils, 6 Ohm load."""
    return stage_factory(n=4)


@pytest.fixture
def run_stage():
    """Open-loop fixed-step integrator: ``run_stage(stage, duration)``."""
    def run(stage: MultiphasePowerStage, duration: float,
            dt: float = 1 * NS, t0: float = 0.0) -> float:
        t = t0
        for _ in range(int(round(duration / dt))):
            stage.step(t, dt)
            t += dt
        return t
    return run


@pytest.fixture
def config_variant():
    """``config_variant(config, name)``: a copy of ``config`` with field
    ``name`` moved to a different valid value."""
    def build(config, name):
        assert name in CONFIG_ALTERNATIVES, (
            f"SystemConfig.{name} has no entry in CONFIG_ALTERNATIVES")
        value = CONFIG_ALTERNATIVES[name]
        assert value != getattr(config, name), name
        return replace(config, **{name: value})
    return build


@pytest.fixture
def paper_params() -> BuckControlParams:
    """Paper-default controller timing constants."""
    return BuckControlParams()


@dataclass
class AnalogRig:
    """A power stage wired to sensors, gate drivers, and the solver."""

    sim: Simulator
    stage: MultiphasePowerStage
    sensors: SensorBank
    gates: GateDriverBank
    solver: AnalogSolver


@pytest.fixture
def analog_rig(sim, stage_factory):
    """Factory: closed-loop analog rig (no controller) on ``sim``."""
    def build(n: int = 1, v_out0: float = 0.0, l_uh: float = 4.7,
              dt: float = 1 * NS, trace: bool = True,
              on: Simulator = None) -> AnalogRig:
        owner = on or sim
        stage = stage_factory(n=n, l_uh=l_uh, v_out0=v_out0)
        sensors = SensorBank(owner, stage, delay=1 * NS, trace=trace)
        gates = GateDriverBank(owner, stage, t_gate=1 * NS, trace=trace)
        solver = AnalogSolver(owner, stage, sensors, dt=dt, trace=trace)
        solver.start()
        return AnalogRig(owner, stage, sensors, gates, solver)
    return build


@dataclass
class ControllerRig:
    """A controller driving stub gates from stub sensors."""

    sim: Simulator
    sensors: StubSensors
    gates: StubGates
    ctrl: object


@pytest.fixture
def controller_rig():
    """Factory: controller unit rig over drivable sensor stubs."""
    def build(controller: str = "sync", n: int = 1,
              freq: float = 333 * MHZ, params: BuckControlParams = None,
              seed: int = 0, gating: str = "off") -> ControllerRig:
        sim = Simulator(seed=seed)
        sensors = StubSensors(sim, n)
        gates = StubGates(sim, n)
        params = params or BuckControlParams()
        if controller == "sync":
            ctrl = SyncMultiphaseController(sim, sensors, gates, n, freq,
                                            params=params, gating=gating)
        else:
            ctrl = AsyncMultiphaseController(sim, sensors, gates, n,
                                             params=params)
        return ControllerRig(sim, sensors, gates, ctrl)
    return build
