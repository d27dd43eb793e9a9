"""The unified simulation front door: :class:`Session`.

One object owns the three execution policies of every simulation:

- **backend** — ``"vector"`` (batched lock-step NumPy) or ``"scalar"``
  (sequential reference path);
- **workers** — process-pool sharding of independent batches;
- **cache** — the content-addressed result cache
  (:mod:`repro.session.cache`): ``"readwrite"``, ``"readonly"``, or
  ``"off"``, with hit/miss counters surfaced on the session.

>>> from repro import Session
>>> session = Session(workers=4, cache="readwrite")
>>> points = session.sweep(sweep)          # cold: simulated, written back
>>> points = session.sweep(sweep)          # hot: served from .repro_cache/
>>> stats = session.cache_stats()
>>> stats["hits"], stats["misses"]
(N, N)

Experiment drivers (``run_fig6`` / ``run_fig7*`` / ``run_table1`` and the
ablation benches) all accept ``session=``; the module-level
:func:`default_session` is their default.
"""

from __future__ import annotations

import os
import threading
from contextlib import closing
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar, Union)

from .. import obs
from ..analog.stepping import GATING_MODES, STEPPING_MODES
from ..scenarios.parallel import pool_map, workers_from_env
from ..scenarios.spec import ScenarioSpec, Specs, SweepPoint, _as_specs
from ..system import BuckSystem, RunResult, SystemConfig
from .cache import (ResultCache, cache_key, code_fingerprint,
                    default_cache_root)
from .inflight import InFlightRegistry

T = TypeVar("T")
R = TypeVar("R")

#: anything Session.run/build accept as "one scenario"
Scenario = Union[ScenarioSpec, SystemConfig, Mapping[str, Any]]


#: the kernel/solver counters of a :class:`RunResult` that a session
#: and a receipt sum over every landed lane
_LANE_COUNTERS = ("solver_ticks", "events_delivered",
                  "clock_edges_simulated", "clock_edges_skipped")
#: the counters of :meth:`Session.cache_stats`: cache hits and misses,
#: lanes served by waiting on a concurrent sweep's computation of the
#: same key (a subset of the hits), sweeps, lanes and the lane totals
_COUNTERS = ("hits", "misses", "inflight_waits", "sweeps",
             "lanes") + _LANE_COUNTERS


class _SessionStats:
    """A session's cumulative counters and its most recent sweep's spans
    and receipt, behind one lock.  Each method takes the lock, reads or
    updates, and returns."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_COUNTERS, 0)
        self._spans: List[obs.Span] = []
        self._receipt: Optional[Dict[str, Any]] = None

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def land(self, result: RunResult, cached: bool, waited: bool) -> None:
        """Count one landed lane: a hit if it was served ``cached``, an
        in-flight wait if it ``waited``, and its kernel counters."""
        with self._lock:
            counts = self._counts
            counts["lanes"] += 1
            counts["hits"] += cached
            counts["inflight_waits"] += waited
            for name in _LANE_COUNTERS:
                counts[name] += getattr(result, name)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def publish(self, spans: List[obs.Span],
                receipt: Optional[Dict[str, Any]]) -> None:
        with self._lock:
            self._spans = spans
            self._receipt = receipt

    def published(self) -> Tuple[List[obs.Span], Optional[Dict[str, Any]]]:
        with self._lock:
            return list(self._spans), self._receipt


class Session:
    """Backend, worker, and cache policy for every simulation it runs.

    Parameters
    ----------
    backend:
        ``"vector"`` (default) or ``"scalar"``.
    workers:
        Shard independent batches across this many worker processes
        (``None``/``0``/``1``: inline).  Results are bit-identical to
        the inline path, in spec order.
    cache:
        ``"readwrite"`` / ``"readonly"`` / ``"off"``, a ready
        :class:`ResultCache`, or ``None`` to resolve the mode from the
        ``REPRO_CACHE`` environment variable; with that unset too, a
        given ``cache_dir`` means ``readwrite`` there, else ``off``.
    cache_dir:
        Cache root for string modes (default: ``REPRO_CACHE_DIR`` or
        ``.repro_cache/``).
    cache_max_bytes:
        On-disk size cap for string cache modes; every write-back prunes
        the store under it, oldest entries first.  ``None`` resolves the
        ``REPRO_CACHE_MAX_MB`` environment variable (unset: unbounded).
    stepping:
        Default solver stepping mode applied to every scenario that does
        not override it: ``"fixed"`` (the default) or ``"adaptive"``
        (error-controlled micro-steps with event-boundary snapping; see
        :mod:`repro.analog.stepping`).  The stepping mode and tolerances
        are part of each scenario's cache key, so fixed and adaptive
        results never collide.
    gating:
        Default clock-gating mode applied to every scenario that does
        not override it: ``"auto"`` (skip provably idle controller
        clock edges in one fast-forward jump — semantics preserving) or
        ``"off"`` (deliver every edge).  Results are bit-identical
        either way; only the kernel event/edge counters differ.
    defaults:
        Config fields applied below every spec's overrides.
    max_lanes_per_shard:
        Cap on lanes per executed batch (see the engine docs).
    """

    def __init__(self, backend: str = "vector",
                 workers: Optional[int] = None,
                 cache: Union[str, ResultCache, None] = None,
                 cache_dir: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 stepping: Optional[str] = None,
                 gating: Optional[str] = None,
                 defaults: Optional[Mapping[str, Any]] = None,
                 max_lanes_per_shard: Optional[int] = None):
        if backend not in ("vector", "scalar"):
            raise ValueError("backend must be 'vector' or 'scalar'")
        if workers is not None and workers < 0:
            raise ValueError("workers cannot be negative")
        if stepping is not None and stepping not in STEPPING_MODES:
            raise ValueError(
                f"stepping must be one of {STEPPING_MODES}, got {stepping!r}")
        if gating is not None and gating not in GATING_MODES:
            raise ValueError(
                f"gating must be one of {GATING_MODES}, got {gating!r}")
        self.backend = backend
        self.workers = workers
        self.defaults: Dict[str, Any] = dict(defaults or {})
        if stepping is not None:
            self.defaults.setdefault("stepping", stepping)
        if gating is not None:
            self.defaults.setdefault("gating", gating)
        self.stepping = stepping
        self.gating = gating
        self.max_lanes_per_shard = max_lanes_per_shard
        self.cache = self._resolve_cache(cache, cache_dir, cache_max_bytes)
        # Sessions are thread-shareable: the sweep server runs many jobs
        # against one session, so the counters live in a locked stats
        # leaf and misses coordinate through the in-flight registry (each
        # unique uncached key is computed by exactly one concurrent sweep).
        self._stats = _SessionStats()
        self._inflight = InFlightRegistry()

    @staticmethod
    def _resolve_cache(cache: Union[str, ResultCache, None],
                       cache_dir: Optional[str],
                       cache_max_bytes: Optional[int] = None
                       ) -> Optional[ResultCache]:
        if isinstance(cache, ResultCache):
            return cache
        mode = cache
        if mode is None:
            mode = (os.environ.get("REPRO_CACHE", "").strip()
                    or ("readwrite" if cache_dir else "off"))
        if mode == "off":
            return None
        root = cache_dir or default_cache_root()
        max_bytes = cache_max_bytes
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
            if raw:
                max_mb = float(raw)
                if max_mb < 0:
                    raise ValueError(
                        f"REPRO_CACHE_MAX_MB cannot be negative (got {raw})")
                max_bytes = int(max_mb * 1024 * 1024)
        return ResultCache(root=root, mode=mode, max_bytes=max_bytes)

    # ------------------------------------------------------------------
    # Scenario coercion
    # ------------------------------------------------------------------
    def _as_spec(self, scenario: Scenario) -> ScenarioSpec:
        if isinstance(scenario, ScenarioSpec):
            return scenario
        if isinstance(scenario, SystemConfig):
            overrides = {name: getattr(scenario, name)
                         for name in SystemConfig.__dataclass_fields__}
            return ScenarioSpec(name="config", overrides=overrides)
        if isinstance(scenario, Mapping):
            return ScenarioSpec(name="adhoc", overrides=dict(scenario))
        raise TypeError(
            f"expected a ScenarioSpec, SystemConfig, or override mapping, "
            f"got {type(scenario).__name__}")

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, scenario: Scenario, *, settle: Optional[float] = None,
            trace: bool = False) -> RunResult:
        """Run one scenario (spec / config / override mapping) and return
        its :class:`RunResult`, served from cache when possible."""
        [point] = self.sweep([self._as_spec(scenario)], settle=settle,
                             trace=trace)
        return point.result

    def sweep(self, specs: Specs, *, settle: Optional[float] = None,
              trace: bool = False, keep: bool = False,
              track_energy: bool = True,
              on_result: Optional[Callable[[int, SweepPoint], None]] = None
              ) -> List[SweepPoint]:
        """Run every scenario and return one :class:`SweepPoint` per
        spec, in spec order.

        Cached entries are looked up per lane before anything executes;
        only the misses are simulated (inline or sharded across
        ``self.workers``) and, in ``readwrite`` mode, written back per
        lane — so a repeated sweep is served entirely from cache at any
        worker count, bit-identical to the cold run.  ``trace=True``
        attaches each run's :class:`~repro.trace.TraceSet` to its
        result; traced results shard across workers and cache like any
        other (a traced request misses on an entry written without
        waveforms and upgrades it on write-back).  ``trace`` is a
        *default*: a ``trace`` override on a spec or config wins over
        it, and execution and cache lookup both follow the resolved
        per-lane value.  ``keep=True`` bypasses the cache: live handles
        cannot be rehydrated from disk.

        ``on_result(index, point)`` is invoked on the calling thread as
        each lane *lands* — immediately for cache hits, then per lane as
        fresh results complete (batch order inline, shard completion
        order with ``workers=N``); a lane's cache write-back happens
        before its callback, so a landed lane's entry is already
        servable by key.  The hook observes progress only: the returned
        list is bit-identical with or without it, and an exception it
        raises aborts the sweep without corrupting the cache.

        Sessions are thread-shareable.  Concurrent ``sweep`` calls on
        one session (the sweep server's job threads) dedupe in-flight
        work through a per-session registry: each unique uncached key is
        claimed by exactly one call, the others wait and are then served
        from the entry the owner wrote back (counted as hits, with
        ``inflight_waits`` tracking the subset that waited).  Duplicate
        keys *within* one sweep are likewise computed once.  A waiter
        whose owner failed — or whose entry is unusable (not written
        back, or written without the waveforms this lane needs) — joins
        the next claim round, so it computes the lane itself unless
        another sweep has claimed the key again.
        """
        spec_list = _as_specs(specs)
        cache = None if keep else self.cache
        points: List[Optional[SweepPoint]] = [None] * len(spec_list)
        waits = 0
        lane_log: Dict[int, float] = {}
        # the kill switch yields no trace: no clock reads on this path
        with obs.ensure_trace() as tr:
            clock = obs.PhaseClock() if tr is not None else None
            t0 = obs.now() if tr is not None else 0.0
            with obs.span("session.sweep", lanes=len(spec_list),
                          backend=self.backend, workers=self.workers or 0,
                          metric="repro_sweep_seconds"):
                lanes = self._sweep_body(
                    spec_list, cache, settle=settle, trace=trace, keep=keep,
                    track_energy=track_energy, clock=clock)
                with closing(lanes):
                    for i, point, waited in lanes:
                        points[i] = point
                        waits += waited
                        self._stats.land(point.result, point.cached, waited)
                        obs.counter(
                            "repro_lanes_total",
                            source="cache" if point.cached else "computed"
                        ).inc()
                        if clock is not None:
                            # landing offset from sweep start
                            lane_log[i] = obs.now() - t0
                        if on_result is not None:
                            on_result(i, point)
                if clock is None:
                    return points  # type: ignore[return-value]
                clock.tick("finalize")
                keys = ([p.key for p in points] if cache is not None
                        else None)
                receipt = self._finish_receipt(tr, clock, spec_list, points,
                                               keys, waits, lane_log)
            self._stats.publish(tr.spans(), receipt)
        obs.gauge("repro_workers").set(self.workers or 0)
        return points  # type: ignore[return-value]

    def _sweep_body(self, spec_list: List[ScenarioSpec],
                    cache: Optional[ResultCache], *,
                    settle: Optional[float], trace: bool, keep: bool,
                    track_energy: bool, clock: Optional[obs.PhaseClock]
                    ) -> Iterator[Tuple[int, SweepPoint, bool]]:
        """The sweep core: yield ``(index, point, waited)`` as each lane
        lands, ``waited`` marking a lane served by an in-flight wait.

        Cache hits land first.  The misses then go round by round: each
        round claims every unique key it can (duplicates follow their
        leader; keys another sweep holds are waited on), computes its
        leaders, and lands each one in one step — store, release the
        claim, yield, serve its duplicates.  A waiter whose owner did not
        publish a usable entry goes into the next round.  ``clock``
        segments the phases; it is ``None`` when the kill switch is off.
        The caller counts each landed lane; a hit is a point served
        ``cached``, so this body counts only sweeps and misses.
        """

        def tick(name: str) -> None:
            if clock is not None:
                clock.tick(name)

        tick("plan")
        self._stats.add(sweeps=1)
        obs.counter("repro_sweeps_total").inc()
        configs = [spec.to_config(trace=trace, **self.defaults)
                   for spec in spec_list]

        if cache is None:
            tick("execute")
            with closing(self._simulate(spec_list, configs, settle=settle,
                                        keep=keep,
                                        track_energy=track_energy)) as lanes:
                for i, result, handle in lanes:
                    yield i, SweepPoint(spec_list[i], configs[i], result,
                                        handle if keep else None), False
            return

        # the process's first keyed sweep computes the fingerprint with
        # this cache's memo; cache_key reads the value back
        code_fingerprint(cache)
        keys: List[str] = [
            cache_key(cfg, settle=settle, backend=self.backend,
                      track_energy=track_energy) for cfg in configs]

        def served(i: int, result: RunResult) -> SweepPoint:
            return SweepPoint(spec_list[i], configs[i], result, cached=True,
                              key=keys[i])

        tick("lookup")
        todo: List[int] = []
        for i, cfg in enumerate(configs):
            # the per-lane *resolved* trace field governs execution
            # (a spec/config override wins over the sweep-level
            # default), so the cache lookup must follow it too
            result = cache.load(keys[i], want_trace=cfg.trace)
            if result is None:
                todo.append(i)
            else:
                yield i, served(i, result), False

        while todo:
            # Claim round.  Dedupe identity is (key, resolved trace):
            # trace is normalised out of the cache key, but a traced lane
            # cannot be served by an untraced computation of the config.
            leaders: List[int] = []
            leader_of: Dict[Tuple[str, bool], int] = {}
            followers: Dict[int, List[int]] = {}
            waiters: List[int] = []
            events: Dict[str, threading.Event] = {}
            for i in todo:
                ident = (keys[i], configs[i].trace)
                if ident in leader_of:
                    followers.setdefault(leader_of[ident], []).append(i)
                elif keys[i] in events:
                    waiters.append(i)
                else:
                    event = self._inflight.claim(keys[i])
                    if event is None:
                        obs.counter("repro_inflight_claims_total").inc()
                        leader_of[ident] = i
                        leaders.append(i)
                    else:
                        events[keys[i]] = event
                        waiters.append(i)

            tick("execute")
            self._stats.add(misses=len(leaders))
            claimed = set(leaders)
            try:
                lanes = self._simulate(
                    [spec_list[i] for i in leaders],
                    [configs[i] for i in leaders], settle=settle, keep=keep,
                    track_energy=track_energy)
                with closing(lanes):
                    for pos, result, _ in lanes:
                        i = leaders[pos]
                        try:
                            if cache.writable:
                                cache.store(keys[i], result,
                                            meta={"spec": spec_list[i].name})
                        finally:
                            # wake concurrent sweeps waiting on this key
                            # (the entry, if writable, is already on disk)
                            claimed.discard(i)
                            self._inflight.release(keys[i])
                        yield i, SweepPoint(spec_list[i], configs[i], result,
                                            key=keys[i]), False
                        for dup in followers.get(i, ()):
                            yield dup, served(dup, result), False
            finally:
                # release the claims of lanes that never landed (mid-sweep
                # failure), so waiters in other threads do not block forever
                for i in sorted(claimed):
                    self._inflight.release(keys[i])

            todo = []
            if waiters:
                tick("wait")
            for i in waiters:
                with obs.span("inflight.wait", key=keys[i][:12]):
                    events[keys[i]].wait()
                result = cache.load(keys[i], want_trace=configs[i].trace)
                if result is None:
                    todo.append(i)
                else:
                    obs.counter("repro_inflight_waits_total").inc()
                    yield i, served(i, result), True

    def _simulate(self, spec_list: List[ScenarioSpec],
                  configs: List[SystemConfig], *, settle: Optional[float],
                  keep: bool, track_energy: bool
                  ) -> Iterator[Tuple[int, RunResult, Any]]:
        """Simulate lanes no cache entry served on this session's backend
        and workers, yielding ``(position, result, handle)`` as each
        lands.  The engine is imported here, so NumPy and the array
        backend load on a process's first miss: a cache-hot process
        never imports them."""
        from ..scenarios.engine import stream_sweep
        return stream_sweep(
            spec_list, configs, backend=self.backend, settle=settle,
            keep=keep, track_energy=track_energy, workers=self.workers,
            max_lanes_per_shard=self.max_lanes_per_shard)

    # ------------------------------------------------------------------
    # Observability: receipts + trace export
    # ------------------------------------------------------------------
    def _finish_receipt(self, tr: obs.Trace, clock: obs.PhaseClock,
                        spec_list: List[ScenarioSpec],
                        points: List[SweepPoint],
                        keys: Optional[List[str]], waits: int,
                        lane_log: Dict[int, float]) -> Dict[str, Any]:
        """Assemble (and, when the cache is writable, persist) this
        sweep's receipt; attach it to the trace so a serve job wrapping
        the sweep gets its own receipt race-free."""
        total = clock.stop()
        hits = sum(1 for p in points if p.cached)
        counters = {name: sum(getattr(p.result, name) for p in points)
                    for name in _LANE_COUNTERS}
        lanes = [{"index": i,
                  "spec": spec_list[i].name,
                  "key": keys[i] if keys is not None else None,
                  "cached": point.cached,
                  "landed_s": lane_log.get(i)}
                 for i, point in enumerate(points)]
        sweep_id = obs.sweep_id_for(
            keys if keys is not None else [s.name for s in spec_list])
        writer = (self.cache if self.cache is not None
                  and self.cache.writable else None)
        path = (str(writer.receipt_path(sweep_id)) if writer is not None
                else None)
        receipt = obs.build_receipt(
            sweep_id=sweep_id, backend=self.backend, workers=self.workers,
            specs=[s.name for s in spec_list], keys=keys,
            fingerprint=code_fingerprint(),
            cache_stats={
                "mode": self.cache.mode if self.cache is not None else "off",
                "hits": hits, "misses": len(points) - hits,
                "inflight_waits": waits,
                "hit_ratio": hits / len(points) if points else 0.0,
            },
            phases=clock.phases, wall_s=total, counters=counters,
            lanes=lanes,
            artifacts={
                "cache_root": str(writer.root) if writer is not None else None,
                "receipt_path": path,
            })
        if writer is not None:
            with obs.span("receipt.write", sweep_id=sweep_id):
                writer.write_receipt(receipt)
        tr.receipt = receipt
        return receipt

    def last_receipt(self) -> Optional[Dict[str, Any]]:
        """The most recent sweep's receipt (``None`` before any sweep or
        with ``REPRO_OBS=off``): resolved-config hashes, code
        fingerprint, cache hit ratio, per-phase wall times, worker
        count, and artifact paths.  See README "Observability"."""
        return self._stats.published()[1]

    def last_trace_spans(self) -> List[obs.Span]:
        """The most recent sweep's spans (coordinator + adopted worker
        spans), empty with ``REPRO_OBS=off``."""
        return self._stats.published()[0]

    def last_trace_events(self) -> List[Dict[str, Any]]:
        """The most recent sweep's timeline as Chrome trace-event JSON
        objects — ``json.dump`` the list and load it in
        ``chrome://tracing`` or Perfetto."""
        return obs.chrome_trace_events(self.last_trace_spans())

    # ------------------------------------------------------------------
    # Waveform-level access (live systems, never cached)
    # ------------------------------------------------------------------
    def build(self, scenario: Scenario, trace: bool = True) -> BuckSystem:
        """Construct a live :class:`BuckSystem` for waveform-level work
        (probes, VCD export, custom stimulus).  A given
        :class:`SystemConfig` is used as-is; specs/mappings are expanded
        over the session defaults with ``trace`` on by default."""
        if isinstance(scenario, SystemConfig):
            config = scenario
        else:
            config = self._as_spec(scenario).to_config(trace=trace,
                                                       **self.defaults)
        return BuckSystem(config)

    def run_system(self, system: BuckSystem,
                   duration: Optional[float] = None,
                   settle: Optional[float] = None) -> RunResult:
        """Execute an already-built system to completion and measure it.

        Never cached: a prebuilt system may have been advanced or
        modified, so its state is not content-addressable."""
        return system.measure(duration=duration, settle=settle)

    # ------------------------------------------------------------------
    # Generic sharding (Table I-style custom harnesses)
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Order-preserving map over the session's worker pool (inline
        when ``workers`` is unset); ``fn`` and items must be picklable."""
        return pool_map(fn, items, self.workers)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """Counters plus the cache location/mode, for logging and the
        sweep server's ``GET /v1/stats``.  *Every* counter — cache,
        in-flight, and the per-lane kernel/solver aggregates — is read
        in one acquisition of the stats lock, so a stats poll racing a
        sweep sees one consistent snapshot, never a hits/misses pair
        from two different moments."""
        stats: Dict[str, Any] = self._stats.snapshot()
        stats["mode"] = self.cache.mode if self.cache is not None else "off"
        stats["root"] = (str(self.cache.root) if self.cache is not None
                         else None)
        return stats

    def __repr__(self) -> str:
        cache = self.cache.mode if self.cache is not None else "off"
        return (f"Session(backend={self.backend!r}, workers={self.workers!r}, "
                f"cache={cache!r})")


# ---------------------------------------------------------------------------
# The default session (the experiment drivers' fallback)
# ---------------------------------------------------------------------------
_default: Optional[Session] = None


def default_session() -> Session:
    """The process-wide default session (created on first use; cache mode
    from ``REPRO_CACHE``, workers inline)."""
    global _default
    if _default is None:
        _default = Session()
    return _default


def session_from_env(backend: str = "vector") -> Session:
    """A session configured from the environment — ``REPRO_SWEEP_WORKERS``
    for sharding, ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` /
    ``REPRO_CACHE_MAX_MB`` for caching, ``REPRO_STEPPING`` for the
    default solver stepping mode, and ``REPRO_GATING`` for the clock
    gating mode — the one-liner used by the benchmark harnesses."""
    stepping = os.environ.get("REPRO_STEPPING", "").strip() or None
    gating = os.environ.get("REPRO_GATING", "").strip() or None
    return Session(backend=backend, workers=workers_from_env(),
                   stepping=stepping, gating=gating)
