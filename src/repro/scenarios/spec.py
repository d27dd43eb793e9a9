"""Scenario specifications and sweep (parameter-space) builders.

A :class:`ScenarioSpec` names one simulation scenario as a flat set of
overrides on top of :class:`repro.system.SystemConfig`.  A :class:`Sweep`
enumerates a whole parameter space — cartesian grids, random draws, or a
mix — into a deterministic, seeded list of specs that the batched engine
(:meth:`repro.session.Session.sweep`) executes.

Spec format
-----------
Override keys are :class:`SystemConfig` field names (``controller``,
``fsm_frequency``, ``inductance``, ``sim_time``, ``dt``, ``seed``, …) plus
a few convenience pseudo-keys:

``r_load``
    Constant load resistance in ohm; expands to
    ``load=LoadProfile.constant(r_load)``.
``l_uh``
    Coil inductance in microhenry; expands to ``coil=make_coil(l_uh*UH)``.
``pmin``, ``nmin``, ``pext``, ``phase_dwell``
    Controller timing constants; collected into a
    :class:`~repro.control.params.BuckControlParams` (only when no explicit
    ``params`` override is given).
``x_*``
    Free-form extras: carried on the spec (for custom runners like the
    Table I harness) but ignored by :meth:`ScenarioSpec.to_config`.

Grid axes accept three value forms: plain values (assigned to the axis
key), mappings (merged into the overrides — for joint parameters like
``{"controller": "sync", "fsm_frequency": ...}``), and ``(label,
mapping)`` tuples (merged, with ``label`` used in the spec name).

Seeding rules
-------------
Sweeps are pure functions of ``(base, axes, seed)``:

- grid points inherit the base config seed (so grid lanes are directly
  comparable) unless ``seed`` itself is swept as an axis;
- random draws use one lane RNG per point, derived from the sweep master
  seed and the point index via :func:`lane_seed` (splitmix-style mixing),
  so inserting or removing points never perturbs the other lanes' draws;
- each random point's config seed is its lane seed, making stochastic
  elements (sensor noise, metastability resolution) reproducible per lane.

Building the same sweep twice therefore yields identical specs, and the
engine guarantees identical results (see the determinism tests).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Union)

from ..analog.coil import make_coil
from ..analog.load import LoadProfile
from ..control.params import BuckControlParams
from ..sim.units import UH
from ..system import RunResult, SystemConfig

#: override keys routed into BuckControlParams instead of SystemConfig
PARAM_KEYS = ("pmin", "nmin", "pext", "phase_dwell")

#: pseudo-keys expanded by :meth:`ScenarioSpec.to_config`
PSEUDO_KEYS = ("r_load", "l_uh") + PARAM_KEYS

_CONFIG_KEYS = frozenset(SystemConfig.__dataclass_fields__)


def lane_seed(master_seed: int, index: int) -> int:
    """Derive a per-lane seed from the sweep master seed and lane index.

    Splitmix64-style finalizer: well-spread, stable across lane insertion
    (lane ``i`` always gets the same seed for a given master seed).
    """
    z = (master_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9)
    z &= 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


@dataclass
class ScenarioSpec:
    """One named scenario: overrides applied on top of the defaults.

    ``overrides`` maps :class:`SystemConfig` fields / pseudo-keys to
    values; :meth:`to_config` performs the expansion.
    """

    name: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None   #: overrides ``SystemConfig.seed`` when set

    def __post_init__(self) -> None:
        unknown = [k for k in self.overrides
                   if k not in _CONFIG_KEYS and k not in PSEUDO_KEYS
                   and not k.startswith("x_")]
        if unknown:
            raise ValueError(
                f"spec {self.name!r}: unknown override keys {unknown}; "
                f"valid keys are SystemConfig fields, {list(PSEUDO_KEYS)}, "
                f"and free-form 'x_*' extras")

    def to_config(self, trace: bool = False, **defaults: Any) -> SystemConfig:
        """Expand this spec into a :class:`SystemConfig`.

        ``defaults`` are config fields applied below the spec's own
        overrides (sweep-level base settings).

        Raises
        ------
        ValueError
            When overrides conflict: a pseudo-key and the config field it
            expands to are both given (``l_uh`` vs ``coil``, ``r_load``
            vs ``load``), or timing pseudo-keys (``pmin``/``nmin``/
            ``pext``/``phase_dwell``) appear next to an explicit
            ``params`` — resolving either silently would let dict order
            pick the winner (or drop the timing keys entirely).
        """
        for pseudo, target in (("l_uh", "coil"), ("r_load", "load")):
            if pseudo in self.overrides and target in self.overrides:
                raise ValueError(
                    f"spec {self.name!r}: conflicting overrides {pseudo!r} "
                    f"and {target!r} both set the {target!r} config field; "
                    f"give exactly one of them")
        fields: Dict[str, Any] = dict(defaults)
        params_kw: Dict[str, Any] = {}
        for key, value in self.overrides.items():
            if key.startswith("x_"):
                continue
            if key == "r_load":
                fields["load"] = LoadProfile.constant(value)
            elif key == "l_uh":
                fields["coil"] = make_coil(value * UH)
            elif key in PARAM_KEYS:
                params_kw[key] = value
            else:
                fields[key] = value
        if params_kw:
            if "params" in fields:
                where = ("override" if "params" in self.overrides
                         else "default")
                raise ValueError(
                    f"spec {self.name!r}: timing overrides "
                    f"{sorted(params_kw)} conflict with the explicit "
                    f"'params' {where}; set the constants on the "
                    f"BuckControlParams instead")
            fields["params"] = BuckControlParams(**params_kw)
        if self.seed is not None:
            fields["seed"] = self.seed
        fields.setdefault("trace", trace)
        return SystemConfig(**fields)


class Distribution:
    """A seeded random draw for :meth:`Sweep.random` axes."""

    def sample(self, rng: random.Random) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class uniform(Distribution):
    """Uniform draw in ``[lo, hi]``."""

    lo: float
    hi: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class log_uniform(Distribution):
    """Log-uniform draw in ``[lo, hi]`` (both must be positive)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo <= 0 or self.hi <= 0:
            raise ValueError("log_uniform bounds must be positive")

    def sample(self, rng: random.Random) -> float:
        return math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))


@dataclass(frozen=True)
class choice(Distribution):
    """Uniform draw from a finite set of values."""

    values: Sequence[Any]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("choice needs at least one value")

    def sample(self, rng: random.Random) -> Any:
        return self.values[rng.randrange(len(self.values))]


class Sweep:
    """Declarative parameter-space builder.

    Examples
    --------
    A Fig. 7-style grid (all combinations, shared base seed)::

        specs = (Sweep(base={"sim_time": 10e-6}, seed=0)
                 .grid(controller=["sync", "async"], l_uh=[1.0, 4.7, 10.0])
                 .specs())

    A random tolerance study (per-lane derived seeds)::

        specs = (Sweep(seed=42)
                 .random(16, l_uh=log_uniform(1.0, 10.0),
                         r_load=uniform(3.0, 15.0))
                 .specs())
    """

    def __init__(self, base: Optional[Mapping[str, Any]] = None,
                 seed: int = 0, name: str = "sweep"):
        self.base: Dict[str, Any] = dict(base or {})
        self.seed = seed
        self.name = name
        self._blocks: List[List[ScenarioSpec]] = []
        # validate base keys eagerly (reuses ScenarioSpec's check)
        ScenarioSpec(name="base", overrides=dict(self.base))

    # ------------------------------------------------------------------
    def grid(self, **axes: Iterable[Any]) -> "Sweep":
        """Append the cartesian product of the given axes.

        Axis order follows keyword order; the product iterates the last
        axis fastest (like nested loops).  Chainable.
        """
        if not axes:
            raise ValueError("grid needs at least one axis")
        keys = list(axes)
        value_lists = [list(axes[k]) for k in keys]
        for vals in value_lists:
            if not vals:
                raise ValueError("grid axes cannot be empty")
        block: List[ScenarioSpec] = []
        for combo in itertools.product(*value_lists):
            overrides = dict(self.base)
            labels = []
            for k, v in zip(keys, combo):
                if (isinstance(v, tuple) and len(v) == 2
                        and isinstance(v[0], str) and isinstance(v[1], Mapping)):
                    overrides.update(v[1])
                    labels.append(f"{k}={v[0]}")
                elif isinstance(v, Mapping):
                    overrides.update(v)
                    labels.append(f"{k}={{{','.join(map(str, v))}}}")
                else:
                    overrides[k] = v
                    labels.append(f"{k}={_fmt(v)}")
            block.append(ScenarioSpec(name=f"{self.name}[{','.join(labels)}]",
                                      overrides=overrides))
        self._blocks.append(block)
        return self

    def random(self, n: int, **draws: Any) -> "Sweep":
        """Append ``n`` random points; each ``draws`` value is a
        :class:`Distribution` or a ``rng -> value`` callable.  Chainable.
        """
        if n < 1:
            raise ValueError("need at least one random point")
        if not draws:
            raise ValueError("random needs at least one drawn axis")
        offset = sum(len(b) for b in self._blocks)
        block: List[ScenarioSpec] = []
        for i in range(n):
            seed = lane_seed(self.seed, offset + i)
            rng = random.Random(seed)
            overrides = dict(self.base)
            for key in draws:   # keyword order, deterministic
                dist = draws[key]
                if isinstance(dist, Distribution):
                    overrides[key] = dist.sample(rng)
                elif callable(dist):
                    overrides[key] = dist(rng)
                else:
                    raise TypeError(
                        f"random axis {key!r} must be a Distribution or "
                        f"callable, got {type(dist).__name__}")
            block.append(ScenarioSpec(name=f"{self.name}[rand{offset + i}]",
                                      overrides=overrides, seed=seed))
        self._blocks.append(block)
        return self

    def point(self, name: Optional[str] = None, **overrides: Any) -> "Sweep":
        """Append a single explicit point.  Chainable."""
        merged = dict(self.base)
        merged.update(overrides)
        label = name or f"{self.name}[{len(self._blocks)}]"
        self._blocks.append([ScenarioSpec(name=label, overrides=merged)])
        return self

    def specs(self) -> List[ScenarioSpec]:
        """All points appended so far, in order."""
        if not self._blocks:
            return [ScenarioSpec(name=f"{self.name}[base]",
                                 overrides=dict(self.base))]
        return [spec for block in self._blocks for spec in block]

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks) or 1


Specs = Union[Sweep, Sequence[ScenarioSpec]]


def _as_specs(specs: Specs) -> List[ScenarioSpec]:
    if isinstance(specs, Sweep):
        return specs.specs()
    return list(specs)


@dataclass
class SweepPoint:
    """One scenario's spec, expanded config, result, and (optionally) the
    live lane/system handle for waveform-level inspection."""

    spec: ScenarioSpec
    config: SystemConfig
    result: RunResult
    handle: Optional[object] = None   #: ScenarioLane or BuckSystem when kept
    #: served without simulating: a cache hit, an in-flight dedupe against
    #: a concurrent sweep, or a duplicate spec within this sweep
    cached: bool = False
    #: the scenario's content cache key (set when the session caches; the
    #: sweep server hands it to clients for GET-by-key fetches)
    key: Optional[str] = None


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
