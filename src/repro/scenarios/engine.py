"""Batched scenario engine: run many buck scenarios in lock-step.

The public front door is :meth:`repro.session.Session.sweep` — hand it a
:class:`~repro.scenarios.spec.Sweep` (or a list of
:class:`ScenarioSpec`) and get one :class:`~repro.system.RunResult` per
scenario, in spec order, optionally served from the session's
content-addressed result cache.

Backends
--------
``vector`` (default)
    Scenarios are grouped into batches that share a
    :func:`~repro.scenarios.parallel.lockstep_key` and each batch
    advances through the
    :class:`~repro.scenarios.vector_solver.VectorizedSolver`: one NumPy
    RK2 step per micro-step for *all* lanes, with per-lane discrete-event
    controllers reacting to comparator crossings exactly as in the scalar
    co-simulation.
``scalar``
    One sequential :class:`~repro.system.BuckSystem` per scenario — the
    reference path and a fallback.  The equivalence tests sweep the same
    specs through both backends with ``trace=True`` and require the
    results, traces included, to be equal up to the kernel event
    counter.

Either backend runs through one batch runner, :func:`run_batch`, inline
or inside a worker process: :func:`stream_sweep` yields each lane as it
lands, and with ``workers=N`` shards independent batches across a
process pool (bit-identical to the inline path; the planner and the
picklable work units live in :mod:`repro.scenarios.parallel`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..analog.gate_driver import GateDriverBank
from ..analog.stepping import SteppingPolicy
from ..control.async_controller import AsyncMultiphaseController
from ..control.params import BuckControlParams
from ..control.sync_controller import SyncMultiphaseController
from ..sim.core import Simulator
from ..system import BuckSystem, RunResult, SystemConfig
from .parallel import (decode_config, decode_spec, encode_config, encode_spec,
                       plan_batches)
from .spec import ScenarioSpec
from .vector_solver import LaneSensors, VectorComparatorBank, VectorizedSolver
from .vector_stage import VectorizedPowerStage


class ScenarioLane:
    """Handle to one lane of a running batch (testbench access: sensors,
    gates, controller, simulator, and the traced run as a TraceSet)."""

    def __init__(self, index: int, spec: ScenarioSpec, config: SystemConfig,
                 sim: Simulator, stage, sensors: LaneSensors,
                 gates: GateDriverBank, controller, solver: VectorizedSolver):
        self.index = index
        self.spec = spec
        self.config = config
        self.sim = sim
        self.stage = stage
        self.sensors = sensors
        self.gates = gates
        self.controller = controller
        self.solver = solver

    def trace_signals(self):
        """This lane's Fig. 6 digital signal set (the vector twin of
        :meth:`repro.system.BuckSystem.waveform_signals`)."""
        signals = [view.output for view in self.sensors.all_comparators()]
        signals += self.gates.gp + self.gates.gn
        if self.config.controller == "async":
            signals += self.controller.token_at
        else:
            signals += self.controller.activator.act
        return signals

    def trace_set(self):
        """The lane's full traced run as a
        :class:`~repro.trace.TraceSet`: compacted analog waveforms plus
        the digital signal channels — identical content (and ``meta``)
        to the scalar :meth:`~repro.system.BuckSystem.trace_set`
        representation."""
        from ..trace import add_signals
        ts = add_signals(self.solver.trace_set(self.index),
                         self.trace_signals())
        ts.meta["v_ref"] = self.sensors.refs.v_ref
        ts.meta["controller"] = self.config.controller
        return ts


class VectorBatch:
    """A set of scenarios advanced together by one vectorized solver.

    All lanes must share ``n_phases``, ``dt`` and ``sim_time`` (the
    lock-step constraints); everything else — controller kind and clock,
    coil, load, rails, timing parameters, seeds — varies per lane.
    Construction mirrors :class:`~repro.system.BuckSystem` wiring so the
    per-lane event schedules line up with the scalar path.
    """

    def __init__(self, specs: Sequence[ScenarioSpec],
                 configs: Sequence[SystemConfig], track_energy: bool = True):
        if len(specs) != len(configs):
            raise ValueError("specs and configs must pair up")
        if not configs:
            raise ValueError("batch needs at least one scenario")
        first = configs[0]
        policy = SteppingPolicy.from_config(first)
        for cfg in configs:
            if cfg.n_phases != first.n_phases:
                raise ValueError("batch lanes must share n_phases")
            if cfg.sim_time != first.sim_time:
                raise ValueError("batch lanes must share sim_time")
            if SteppingPolicy.from_config(cfg) != policy:
                raise ValueError(
                    "batch lanes must share dt and the stepping policy")
        self.configs = list(configs)
        self.sim_time = first.sim_time
        self.dt = first.dt
        n_phases = first.n_phases
        if policy.adaptive and any(cfg.sensor_delay <= 0 or cfg.t_gate <= 0
                                   for cfg in configs):
            raise ValueError(
                "adaptive stepping needs positive sensor_delay and t_gate "
                "(the guard window that keeps comparator edges exact is "
                "derived from them)")
        # Fixed-step lanes share one event heap with the solver's tick.
        # Adaptive lanes stop at their own step ends, where a shared heap
        # would pop and re-push every other lane's pending events.
        lead = Simulator(seed=first.seed)
        share = None if policy.adaptive else lead
        self.sims = [lead] + [Simulator(seed=cfg.seed, share_heap=share)
                              for cfg in configs[1:]]
        self.stage = VectorizedPowerStage(configs, track_energy=track_energy)
        self.bank = VectorComparatorBank(self.sims, configs, n_phases)
        self.solver = VectorizedSolver(
            self.sims, self.stage, self.bank, dt=self.dt,
            trace=any(cfg.trace for cfg in configs), policy=policy)
        self.lanes: List[ScenarioLane] = []
        for i, (spec, cfg) in enumerate(zip(specs, configs)):
            sim = self.sims[i]
            sensors = LaneSensors(self.bank, i)
            gates = GateDriverBank(sim, self.stage.lanes[i],
                                   t_gate=cfg.t_gate, trace=cfg.trace)
            if policy.adaptive:
                for driver in gates.drivers:
                    driver.on_commute = (
                        lambda when, lane=i: self.solver.note_commutation(
                            lane, when))
            params = cfg.params or BuckControlParams()
            if cfg.controller == "sync":
                controller = SyncMultiphaseController(
                    sim, sensors, gates, n_phases, cfg.fsm_frequency,
                    params=params, trace=cfg.trace, gating=cfg.gating,
                    crossing_bound=(
                        lambda lane=i: self.solver.lane_crossing_bound(lane)))
            else:
                controller = AsyncMultiphaseController(
                    sim, sensors, gates, n_phases, params=params,
                    timings=cfg.timings, trace=cfg.trace)
            self.lanes.append(ScenarioLane(i, spec, cfg, sim,
                                           self.stage.lanes[i], sensors,
                                           gates, controller, self.solver))
        self.solver.start()

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    def run(self, duration: Optional[float] = None,
            settle: Optional[float] = None) -> List[RunResult]:
        """Advance every lane and collect per-lane headline measurements.

        Settle semantics match :meth:`BuckSystem.measure`: statistics except
        the peak current exclude the startup transient (first ``settle``
        seconds, default 20% of the run).
        """
        duration = duration if duration is not None else self.sim_time
        settle = settle if settle is not None else 0.2 * duration
        if settle < 0:
            raise ValueError(f"settle cannot be negative (got {settle:g})")
        if settle >= duration:
            raise ValueError(
                f"settle ({settle:g} s) must be smaller than the run "
                f"duration ({duration:g} s): the run would overshoot the "
                f"requested end time and leave a zero-span measurement "
                f"window")
        solver, stage = self.solver, self.stage
        t0 = solver.now
        loss0 = stage.coil_losses_j()
        peak_startup = np.zeros(self.n_lanes)
        if settle > 0:
            solver.advance_to(t0 + settle)
            peak_startup = solver.peak_coil_current()
            solver.reset_measurements()
            loss0 = stage.coil_losses_j()
        solver.advance_to(t0 + duration)

        span = duration - settle
        loss_w = ((stage.coil_losses_j() - loss0) / span
                  if span > 0 else np.zeros(self.n_lanes))
        ripple = solver.ripple()
        peak = np.maximum(peak_startup, solver.peak_coil_current())
        results = []
        for i, lane in enumerate(self.lanes):
            e_in = float(stage.energy_in_j[i])
            results.append(RunResult(
                controller=lane.config.controller,
                v_final=float(stage.v_out[i]),
                peak_coil_current=float(peak[i]),
                ripple=float(ripple[i]),
                coil_loss_w=float(loss_w[i]),
                efficiency=(float(stage.energy_out_j[i]) / e_in
                            if e_in > 0 else 0.0),
                ov_events=len(self.bank.outputs[i][2].edges("rise")),
                cycles=list(lane.controller.cycles_started),
                metastable_events=lane.controller.metastable_events(),
                solver_ticks=int(solver.tick_counts[i]),
                trace=lane.trace_set() if lane.config.trace else None,
                events_delivered=lane.sim.events_delivered,
                clock_edges_simulated=getattr(
                    lane.controller, "clock_edges_simulated", 0),
                clock_edges_skipped=getattr(
                    lane.controller, "clock_edges_skipped", 0),
            ))
        return results


def run_batch(specs: Sequence[ScenarioSpec], configs: Sequence[SystemConfig],
              indices: Sequence[int], *, backend: str,
              settle: Optional[float] = None, track_energy: bool = True
              ) -> Iterator[Tuple[int, RunResult, Any]]:
    """Run one batch and yield ``(index, result, handle)`` per lane, in
    batch order — the one runner behind the inline path and the shard
    worker.

    ``specs``/``configs`` are the batch's lanes and ``indices`` their
    sweep indices.  ``backend="scalar"`` runs one
    :class:`~repro.system.BuckSystem` per lane (the handle); otherwise
    the lanes run as one :class:`VectorBatch` (the handle is the
    :class:`ScenarioLane`), so they must share a
    :func:`~repro.scenarios.parallel.lockstep_key`.  ``track_energy``
    is the vector backend's switch for energy/loss accumulation (off:
    ``coil_loss_w`` and ``efficiency`` read zero).
    """
    if backend == "scalar":
        for index, spec, cfg in zip(indices, specs, configs):
            with obs.span("lane.compute", index=index, spec=spec.name,
                          backend="scalar",
                          metric="repro_lane_compute_seconds"):
                system = BuckSystem(cfg)
                result = system.measure(settle=settle)
            yield index, result, system
        return
    with obs.span("batch.run", lanes=len(indices), backend="vector",
                  metric="repro_lane_compute_seconds"):
        batch = VectorBatch(specs, configs, track_energy=track_energy)
        results = batch.run(settle=settle)
    for index, spec, result, lane in zip(indices, specs, results,
                                         batch.lanes):
        with obs.span("lane.collect", index=index, spec=spec.name):
            yield index, result, lane


def _run_shard(shard: int, indices: Tuple[int, ...],
               specs: List[Dict[str, Any]], configs: List[Dict[str, Any]],
               **options: Any) -> Tuple[List[RunResult],
                                        List[Dict[str, Any]],
                                        Dict[str, Any]]:
    """Worker entry point: rebuild one batch from its encoded lanes and
    run it to completion with :func:`run_batch` (``options`` are its
    keywords).

    Returns ``(results, spans, metrics_delta)``: the per-lane results
    plus the worker-side observability payload — exported spans from a
    fresh worker trace and the counter/histogram movement since the
    shard started (forked workers inherit the parent's counts; the
    baseline keeps the delta clean).  Both extras are empty when the
    kill switch is off.
    """
    base = obs.metrics_baseline()
    with obs.new_trace() as tr:
        with obs.span("shard.run", shard=shard, lanes=len(indices),
                      backend=options["backend"],
                      metric="repro_shard_seconds"):
            results = [result for _, result, _ in run_batch(
                [decode_spec(s) for s in specs],
                [decode_config(c) for c in configs], indices, **options)]
        spans = tr.export() if tr is not None else []
    return results, spans, obs.metrics_delta(base)


def stream_sweep(spec_list: Sequence[ScenarioSpec],
                 configs: Sequence[SystemConfig], *,
                 backend: str = "vector", settle: Optional[float] = None,
                 keep: bool = False, track_energy: bool = True,
                 workers: Optional[int] = None,
                 max_lanes_per_shard: Optional[int] = None
                 ) -> Iterator[Tuple[int, RunResult, Any]]:
    """Execute pre-expanded (spec, config) pairs, yielding ``(index,
    result, handle)`` as each lane lands — the engine core behind
    :meth:`repro.session.Session.sweep`, with ``index`` into
    ``spec_list``.

    Inline (``workers`` unset, 0 or 1) lanes land one by one as each
    batch finishes: scalar lanes in spec order, vector lanes batch by
    batch (:func:`~repro.scenarios.parallel.plan_batches`), each with its
    live handle.  With ``workers=N`` the batches shard across a process
    pool and lanes land per *finished shard*, in completion order, with
    no handle — live handles cannot cross processes, so ``keep=True``
    raises there.  Either way every result, traced ones included, is
    bit-identical: lanes are seeded independently of batch composition
    and a :class:`~repro.trace.TraceSet` pickles intact.

    ``max_lanes_per_shard`` caps the lanes of one vector batch (per-lane
    seeding keeps chunking exact).  Default: an even split over
    ``workers`` when sharding, no splitting inline.
    """
    options = {"backend": backend, "settle": settle,
               "track_energy": track_energy}
    if not workers or workers < 2:
        if backend == "scalar":
            plans = [tuple(range(len(configs)))]
        else:
            plans = [plan.indices
                     for plan in plan_batches(configs, max_lanes_per_shard)]
        for indices in plans:
            yield from run_batch([spec_list[i] for i in indices],
                                 [configs[i] for i in indices], indices,
                                 **options)
        return
    if keep:
        raise ValueError(
            "keep=True attaches live lane/system handles, which cannot "
            "cross process boundaries; run with workers=1 (or workers=None) "
            "to keep handles")
    if max_lanes_per_shard is None:
        max_lanes_per_shard = max(1, math.ceil(len(configs) / workers))
    plans = plan_batches(configs, max_lanes_per_shard)
    if not plans:
        return
    # imported here: multiprocessing is loaded only by a process that shards
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max_workers=min(workers, len(plans))) as pool:
        futures = {
            pool.submit(_run_shard, shard, plan.indices,
                        [encode_spec(spec_list[i]) for i in plan.indices],
                        [encode_config(configs[i]) for i in plan.indices],
                        **options): (shard, plan.indices)
            for shard, plan in enumerate(plans)}
        for future in as_completed(futures):
            shard, indices = futures[future]
            results, spans, delta = future.result()
            obs.adopt_spans(spans, worker=f"shard-{shard}")
            obs.merge_metrics(delta)
            for index, result in zip(indices, results):
                with obs.span("lane.land", index=index, shard=shard):
                    yield index, result, None
