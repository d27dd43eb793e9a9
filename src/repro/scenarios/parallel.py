"""Batch planning and picklable work units for
:meth:`repro.session.Session.sweep`.

The vectorized backend already collapses N scenarios into one array
integration, but every lane still owns a discrete-event simulator whose
controller work is pure Python — the serial floor (~40-60% of a vector
batch at light load) that one process cannot reclaim.  Batches are
mutually independent, so :func:`repro.scenarios.engine.stream_sweep`
shards them across a :class:`~concurrent.futures.ProcessPoolExecutor`.
This module holds the parts of that which need no NumPy (the cache and
the session import it on the cache-hot path):

1. :func:`plan_batches` — the *planner* shared by the inline and the
   sharded path: group specs by :func:`lockstep_key`, then slice
   oversized groups into ``max_lanes_per_shard`` chunks.  Per-lane
   seeding makes every lane's trajectory independent of its batch
   neighbours, so chunking cannot change results.
2. :func:`encode_spec` / :func:`encode_config` — picklable work units:
   specs and expanded :class:`~repro.system.SystemConfig` fields travel
   as plain dicts of primitives; model objects (coil, load profile,
   references, controller params, async timings) are re-built in the
   child, so nothing unpicklable ever crosses the pipe.  The same
   codec builds every cache key's payload, so it runs once per lane on
   a cache-hot sweep: it dispatches on the exact type of each value
   (primitives pass straight through, a model is flattened from its
   declared fields) and falls back to ``isinstance`` only for
   subclasses, which yields the bytes the ``asdict`` form always had.

Traced sweeps shard too: each worker attaches the lane's columnar
:class:`~repro.trace.TraceSet` to its result, and TraceSets pickle
bit-exactly, so ``trace=True, workers=N`` waveforms are identical to
the inline path's.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, TypeVar)

from ..analog.coil import Coil
from ..analog.load import LoadProfile
from ..analog.sensors import BuckReferences
from ..control.async_controller import AsyncTimings
from ..control.params import BuckControlParams
from ..system import SystemConfig
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


#: the exact model types flattened field by field, each with its tag
#: and declared field names.  Every field of these four is a primitive,
#: so the flat dict equals the ``dataclasses.asdict`` form, copy-free.
_FLAT: Dict[type, Tuple[str, Tuple[str, ...]]] = {
    cls: (tag, tuple(cls.__dataclass_fields__))
    for tag, cls in _MODELS.items()}

#: value types every codec passes through untouched
_PLAIN = frozenset({str, int, float, bool, type(None)})


def encode_value(value: Any) -> Any:
    """Flatten one override/config value into pickle-safe primitives.

    The exact type picks the tag; a subclass of a model class takes the
    ``isinstance`` chain, so it encodes as it always has."""
    flat = _FLAT.get(type(value))
    if flat is not None:
        tag, names = flat
        out = {_MODEL_TAG: tag}
        for name in names:
            out[name] = getattr(value, name)
        return out
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
    if type(value) is not dict and (type(value) in _PLAIN
                                    or not isinstance(value, Mapping)):
        return value
    if _MODEL_TAG not in value:
        return value
    kind = value[_MODEL_TAG]
    fields = {k: v for k, v in value.items() if k != _MODEL_TAG}
    if kind == "load":
        return LoadProfile([tuple(step) for step in fields["steps"]])
    return _MODELS[kind](**fields)


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
    out: Dict[str, Any] = {}
    for name in SystemConfig.__dataclass_fields__:
        value = getattr(config, name)
        out[name] = value if type(value) in _PLAIN else encode_value(value)
    return out


def decode_config(payload: Mapping[str, Any]) -> SystemConfig:
    return SystemConfig(**{k: decode_value(v) for k, v in payload.items()})


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
