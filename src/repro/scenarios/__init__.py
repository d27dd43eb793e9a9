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

- :mod:`repro.scenarios.spec` — specs, grid/random sweeps, seeding rules;
- :mod:`repro.scenarios.vector_stage` — the N-lane power-stage arrays;
- :mod:`repro.scenarios.vector_solver` — lock-step solver + comparators;
- :mod:`repro.scenarios.engine` — lane handles, batching, results;
- :mod:`repro.scenarios.parallel` — process-pool sharding of batches
  (``Session(workers=N)``), batch planner, picklable work units.
"""

from .engine import ScenarioLane, SweepPoint, VectorBatch
from .parallel import BatchPlan, plan_batches, pool_map, run_sweep_parallel
from .spec import (
    Distribution,
    ScenarioSpec,
    Sweep,
    choice,
    lane_seed,
    log_uniform,
    uniform,
)
from .vector_solver import LaneSensors, VectorComparatorBank, VectorizedSolver
from .vector_stage import LanePhase, LaneStage, VectorizedPowerStage

__all__ = [
    "ScenarioSpec", "Sweep", "Distribution", "uniform", "log_uniform",
    "choice", "lane_seed",
    "SweepPoint", "VectorBatch", "ScenarioLane",
    "BatchPlan", "plan_batches", "pool_map", "run_sweep_parallel",
    "VectorizedPowerStage", "LaneStage", "LanePhase",
    "VectorizedSolver", "VectorComparatorBank", "LaneSensors",
]
