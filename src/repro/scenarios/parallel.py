"""Process-parallel sharding of :meth:`repro.session.Session.sweep`.

The vectorized backend already collapses N scenarios into one array
integration, but every lane still owns a discrete-event simulator whose
controller work is pure Python — the serial floor (~40-60% of a vector
batch at light load) that one process cannot reclaim.  Batches are
mutually independent, so this module shards them across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

1. :func:`plan_batches` — the *planner* shared with the inline engine
   path: group specs by :func:`lockstep_key`, then slice oversized
   groups into ``max_lanes_per_shard`` chunks.  Per-lane seeding makes every lane's trajectory independent of
   its batch neighbours, so chunking cannot change results.
2. :func:`encode_spec` / :func:`encode_config` — picklable work units:
   specs and expanded :class:`~repro.system.SystemConfig` fields travel
   as plain dicts of primitives; model objects (coil, load profile,
   references, controller params, async timings) are re-built in the
   child, so nothing unpicklable ever crosses the pipe.
3. :func:`run_sweep_parallel` — executes one shard per work unit and
   reassembles the per-lane :class:`~repro.system.RunResult` list in spec
   order (``pool.map`` preserves submission order), bit-identical to the
   inline ``workers=1`` path.

Live handles (``keep=True`` lanes) cannot cross process boundaries; the
engine front door raises before reaching this module.  Traced sweeps
*do* shard: each worker attaches the lane's columnar
:class:`~repro.trace.TraceSet` to its :class:`RunResult`, and TraceSets
pickle bit-exactly, so ``trace=True, workers=N`` waveforms are
identical to the inline path's.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, TypeVar)

from .. import obs
from ..analog.coil import Coil
from ..analog.load import LoadProfile
from ..analog.sensors import BuckReferences
from ..control.async_controller import AsyncTimings
from ..control.params import BuckControlParams
from ..system import RunResult, SystemConfig
from .spec import ScenarioSpec

T = TypeVar("T")
R = TypeVar("R")


# ---------------------------------------------------------------------------
# Batch planning (shared by the inline engine path and the sharder)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchPlan:
    """One executable batch: the sweep indices it covers, in spec order."""

    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


#: :class:`SystemConfig` fields that are per-lane state — each lane owns
#: its controller, analog arrays, and event timing — so lanes differing
#: in them still advance in lock step (the parallel determinism tests
#: lock lane-composition independence).  Every field *not* listed here
#: is part of :func:`lockstep_key`: a new field batches apart until it
#: is declared per-lane, which costs speed, never correctness.
PER_LANE_FIELDS = (
    # per-lane FSMs
    "controller", "fsm_frequency", "params", "timings",
    # per-lane arrays
    "coil", "inductance", "v_in", "c_out", "v_out0",
    # per-lane analog models
    "load", "refs",
    # per-lane noise / timing
    "sensor_delay", "sensor_noise", "seed",
    # per-lane measurement window
    "t_gate",
    # per-lane event pacing; results bit-identical either way
    "gating",
)

#: the keyed fields, in declaration order
_LOCKSTEP_FIELDS = tuple(name for name in SystemConfig.__dataclass_fields__
                         if name not in PER_LANE_FIELDS)


def lockstep_key(config: SystemConfig) -> Tuple:
    """The grouping key lanes must share to advance in one vector batch:
    every :class:`SystemConfig` field outside :data:`PER_LANE_FIELDS`.

    That covers the grid (``n_phases``, ``dt``, ``sim_time``), ``trace``,
    and the stepping-policy fields: fixed and adaptive lanes run
    different solver loops and must not share a batch (adaptive lanes
    still advance on per-lane grids inside their batch, so batch
    composition never affects results — the key only keeps the loop and
    its tolerances uniform).
    """
    return tuple(getattr(config, name) for name in _LOCKSTEP_FIELDS)


def plan_batches(configs: Sequence[SystemConfig],
                 max_lanes_per_shard: Optional[int] = None) -> List[BatchPlan]:
    """Group sweep entries into executable batches.

    Entries sharing the lock-step key form one batch (first-occurrence
    order, indices ascending within each batch).  When
    ``max_lanes_per_shard`` is given, oversized batches are sliced into
    contiguous chunks of at most that many lanes — per-lane seeding makes
    lane trajectories independent of their batch neighbours, so chunking
    never changes results (see the parallel determinism tests).
    """
    if max_lanes_per_shard is not None and max_lanes_per_shard < 1:
        raise ValueError("max_lanes_per_shard must be at least 1")
    groups: Dict[Tuple, List[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(lockstep_key(cfg), []).append(i)
    plans: List[BatchPlan] = []
    for indices in groups.values():
        if max_lanes_per_shard is None:
            plans.append(BatchPlan(tuple(indices)))
            continue
        for start in range(0, len(indices), max_lanes_per_shard):
            plans.append(BatchPlan(
                tuple(indices[start:start + max_lanes_per_shard])))
    return plans


# ---------------------------------------------------------------------------
# Spec / config serialization (picklable work units)
# ---------------------------------------------------------------------------
#: model classes rebuilt in the worker from their dataclass fields
_MODELS: Dict[str, type] = {
    "coil": Coil,
    "refs": BuckReferences,
    "params": BuckControlParams,
    "timings": AsyncTimings,
}

_MODEL_TAG = "__model__"


def encode_value(value: Any) -> Any:
    """Flatten one override/config value into pickle-safe primitives."""
    if isinstance(value, Coil):
        return {_MODEL_TAG: "coil", **asdict(value)}
    if isinstance(value, LoadProfile):
        return {_MODEL_TAG: "load", "steps": value.steps()}
    if isinstance(value, BuckReferences):
        return {_MODEL_TAG: "refs", **asdict(value)}
    if isinstance(value, BuckControlParams):
        return {_MODEL_TAG: "params", **asdict(value)}
    if isinstance(value, AsyncTimings):
        return {_MODEL_TAG: "timings", **asdict(value)}
    return value


def decode_value(value: Any) -> Any:
    """Rebuild a model object from its :func:`encode_value` form."""
    if isinstance(value, Mapping) and _MODEL_TAG in value:
        kind = value[_MODEL_TAG]
        fields = {k: v for k, v in value.items() if k != _MODEL_TAG}
        if kind == "load":
            return LoadProfile([tuple(step) for step in fields["steps"]])
        return _MODELS[kind](**fields)
    return value


def encode_spec(spec: ScenarioSpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "overrides": {k: encode_value(v) for k, v in spec.overrides.items()},
        "seed": spec.seed,
    }


def decode_spec(payload: Mapping[str, Any]) -> ScenarioSpec:
    return ScenarioSpec(
        name=payload["name"],
        overrides={k: decode_value(v)
                   for k, v in payload["overrides"].items()},
        seed=payload["seed"],
    )


def encode_config(config: SystemConfig) -> Dict[str, Any]:
    return {name: encode_value(getattr(config, name))
            for name in SystemConfig.__dataclass_fields__}


def decode_config(payload: Mapping[str, Any]) -> SystemConfig:
    return SystemConfig(**{k: decode_value(v) for k, v in payload.items()})


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------
@dataclass
class _ShardWork:
    """Everything one worker needs to run one batch (plain primitives)."""

    backend: str
    settle: Optional[float]
    track_energy: bool
    specs: List[Dict[str, Any]]
    configs: List[Dict[str, Any]]
    #: shard number and original sweep indices — observability labels
    #: only; results are placed by the coordinator's plan, never these
    shard: int = 0
    indices: Tuple[int, ...] = ()


def _run_shard(work: _ShardWork) -> Tuple[List[RunResult],
                                          List[Dict[str, Any]],
                                          Dict[str, Any]]:
    """Worker entry point: rebuild the batch and run it to completion.

    Returns ``(results, spans, metrics_delta)``: the per-lane results
    plus the worker-side observability payload — exported spans from a
    fresh worker trace and the counter/histogram movement since the
    shard started (forked workers inherit the parent's counts; the
    baseline keeps the delta clean).  Both extras are empty when the
    kill switch is off.
    """
    # Imported lazily: engine imports this module for the shared planner.
    from .. import obs
    from ..system import BuckSystem
    from .engine import VectorBatch

    specs = [decode_spec(s) for s in work.specs]
    configs = [decode_config(c) for c in work.configs]
    base = obs.metrics_baseline()
    with obs.new_trace() as tr:
        with obs.span("shard.run", shard=work.shard, lanes=len(specs),
                      backend=work.backend,
                      metric="repro_shard_seconds"):
            if work.backend == "scalar":
                results = []
                for lane_no, cfg in enumerate(configs):
                    index = (work.indices[lane_no]
                             if lane_no < len(work.indices) else lane_no)
                    with obs.span("lane.compute", index=index,
                                  spec=specs[lane_no].name,
                                  backend="scalar",
                                  metric="repro_lane_compute_seconds"):
                        results.append(
                            BuckSystem(cfg).measure(settle=work.settle))
            else:
                with obs.span("batch.run", lanes=len(specs),
                              backend="vector",
                              metric="repro_lane_compute_seconds"):
                    batch = VectorBatch(specs, configs,
                                        track_energy=work.track_energy)
                    results = batch.run(settle=work.settle)
                for lane_no, spec in enumerate(specs):
                    index = (work.indices[lane_no]
                             if lane_no < len(work.indices) else lane_no)
                    with obs.span("lane.collect", index=index,
                                  spec=spec.name):
                        pass
        spans = tr.export() if tr is not None else []
    return results, spans, obs.metrics_delta(base)


def run_sweep_parallel(specs: Sequence[ScenarioSpec],
                       configs: Sequence[SystemConfig],
                       backend: str = "vector",
                       settle: Optional[float] = None,
                       track_energy: bool = True,
                       workers: int = 2,
                       max_lanes_per_shard: Optional[int] = None,
                       on_result: Optional[Callable[[int, RunResult], None]]
                       = None) -> List[RunResult]:
    """Shard the sweep across worker processes; results in spec order.

    ``max_lanes_per_shard`` defaults to an even split of the whole sweep
    over ``workers`` (so one homogeneous batch fans out across the pool).
    The reassembled results are bit-identical to the inline path: lanes
    are seeded independently of batch composition and shards are indexed
    by their plan, so completion order cannot perturb placement.

    ``on_result(index, result)`` is invoked on the calling thread for
    every lane of each shard as that shard *completes* (futures consumed
    via ``as_completed``), so progress flows even while slower shards
    are still running; callback order across shards is completion order,
    never spec order.  The returned list is unaffected by the hook.
    """
    if workers < 2:
        raise ValueError("run_sweep_parallel needs workers >= 2; "
                         "use the inline engine path otherwise")
    if len(specs) != len(configs):
        raise ValueError("specs and configs must pair up")
    if max_lanes_per_shard is None:
        max_lanes_per_shard = max(1, math.ceil(len(configs) / workers))
    plans = plan_batches(configs, max_lanes_per_shard)
    work = [
        _ShardWork(backend=backend, settle=settle, track_energy=track_energy,
                   specs=[encode_spec(specs[i]) for i in plan.indices],
                   configs=[encode_config(configs[i]) for i in plan.indices],
                   shard=shard_no, indices=plan.indices)
        for shard_no, plan in enumerate(plans)
    ]
    # imported here: multiprocessing is loaded only by a process that shards
    from concurrent.futures import ProcessPoolExecutor, as_completed
    results: List[Optional[RunResult]] = [None] * len(configs)
    with ProcessPoolExecutor(max_workers=min(workers, len(plans))) as pool:
        futures = {pool.submit(_run_shard, unit): (plan, unit.shard)
                   for plan, unit in zip(plans, work)}
        for future in as_completed(futures):
            plan, shard_no = futures[future]
            shard, spans, delta = future.result()
            obs.adopt_spans(spans, worker=f"shard-{shard_no}")
            obs.merge_metrics(delta)
            for index, result in zip(plan.indices, shard):
                with obs.span("lane.land", index=index, shard=shard_no):
                    results[index] = result
                    if on_result is not None:
                        on_result(index, result)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Generic order-preserving pool map (used by the Table I harness)
# ---------------------------------------------------------------------------
def pool_map(fn: Callable[[T], R], items: Sequence[T],
             workers: Optional[int] = None) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    Runs inline for ``workers in (None, 0, 1)`` (or a single item);
    otherwise fans out over a process pool.  ``fn`` and the items must be
    picklable (a module-level function of plain values).
    """
    if workers is not None and workers < 0:
        raise ValueError("workers cannot be negative")
    items = list(items)
    if workers in (None, 0, 1) or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def workers_from_env(var: str = "REPRO_SWEEP_WORKERS") -> Optional[int]:
    """Worker count from the environment: unset/empty/``0`` means inline
    (``None``).  Used by the benchmark harnesses so one CI variable
    shards every sweep."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return None
    count = int(raw)
    if count < 0:
        raise ValueError(f"{var} cannot be negative (got {count})")
    return count or None
