"""Batched scenario engine: sweeps of buck scenarios in lock-step.

The scaling substrate of the reproduction (see README, "Scenario
engine"): declare a parameter space with :class:`Sweep` /
:class:`ScenarioSpec`, execute it with
:meth:`repro.session.Session.sweep`, and the vectorized backend
advances all scenarios together —
:class:`VectorizedPowerStage` integrates every lane's ODE as NumPy array
operations while each lane's discrete-event controller runs on its own
seeded :class:`~repro.sim.core.Simulator`, reacting to per-lane
comparator crossings.

- :mod:`repro.scenarios.spec` — specs, grid/random sweeps, seeding rules,
  the :class:`SweepPoint` a sweep returns;
- :mod:`repro.scenarios.vector_stage` — the N-lane power-stage arrays;
- :mod:`repro.scenarios.vector_solver` — lock-step solver + comparators;
- :mod:`repro.scenarios.engine` — lane handles, the batch runner, and
  the lane stream that runs a sweep inline or sharded across a process
  pool (``Session(workers=N)``);
- :mod:`repro.scenarios.parallel` — batch planner, picklable work units.
"""

from importlib import import_module

from .parallel import BatchPlan, plan_batches, pool_map
from .spec import (
    Distribution,
    ScenarioSpec,
    Sweep,
    SweepPoint,
    choice,
    lane_seed,
    log_uniform,
    uniform,
)

#: lazily re-exported names (PEP 562): keeps the array engine, and with
#: it NumPy, out of a process that only builds specs or reads the cache
_LAZY_EXPORTS = {
    "VectorBatch": ".engine",
    "ScenarioLane": ".engine",
    "VectorizedSolver": ".vector_solver",
    "VectorComparatorBank": ".vector_solver",
    "LaneSensors": ".vector_solver",
    "VectorizedPowerStage": ".vector_stage",
    "LaneStage": ".vector_stage",
    "LanePhase": ".vector_stage",
}

__all__ = [
    "ScenarioSpec", "Sweep", "Distribution", "uniform", "log_uniform",
    "choice", "lane_seed",
    "SweepPoint", "VectorBatch", "ScenarioLane",
    "BatchPlan", "plan_batches", "pool_map",
    "VectorizedPowerStage", "LaneStage", "LanePhase",
    "VectorizedSolver", "VectorComparatorBank", "LaneSensors",
]


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)
