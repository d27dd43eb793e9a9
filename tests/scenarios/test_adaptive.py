"""Error-controlled adaptive stepping: drift bounds and determinism.

The adaptive stepper takes different (error-controlled, event-snapped)
steps than the fixed grid, so it is cross-validated with *bounded drift*
against the fixed-step reference rather than bit-matched:

- headline physics (peak currents, ripple, regulation) stay within the
  documented tolerances of the golden-locked fixed results;
- controller activity (cycle counts, OV episodes) stays within a small
  relative band — late comparator edges would show up here first;
- the tick-count reduction that motivates the mode is locked per
  scenario (the fig7a-grid aggregate floor lives in
  ``benchmarks/test_bench_adaptive.py``).

Between the two *adaptive* backends no drift is tolerated: the stepping
policy is the same code path on both, so scalar-adaptive and
vector-adaptive results must be equal as whole ``RunResult`` objects
up to the kernel event counter (``tests/scenarios/oracle.py``), and a
lane's adaptive trajectory must be independent of its batch neighbours,
worker count, and cache state — that independence is what makes the
per-lane result cache sound in adaptive mode.

Table I reaction latencies are measured on drivable sensor/gate stubs
with no analog solver in the loop (``repro.metrics.reaction``), so they
are invariant under the stepping mode by construction; the golden
Table I locks cover them.  The in-system counterpart — comparator-edge
to gate-response behaviour — is bounded here through the cycle/OV
agreement of the drift specs.
"""

import collections

import pytest

from repro import Session
from repro.analog.load import LoadProfile
from repro.analog.stepping import SteppingPolicy
from repro.scenarios import ScenarioSpec, Sweep, VectorBatch, plan_batches
from repro.sim import NS, US
from repro.system import SystemConfig

from .oracle import (check_backends_agree, check_stepping_drift, runs,
                     variant)

#: fixed-vs-adaptive drift bounds: the observed worst case across the
#: spec set below is ~1.4 mA peak, ~12.5% ripple, ~2.5% cycles, so the
#: bounds carry ~3x headroom; the relative cycle bound is strict
DRIFT_BOUNDS = dict(peak_tol=0.004, ripple_rel=0.25, ripple_abs=0.010,
                    cycle_rel=0.08)

#: per-scenario tick-reduction floors (deterministic — tick counts are a
#: pure function of the scenario, never of wall clock)
DRIFT_SPECS = [
    # (spec, tick-ratio floor)
    (ScenarioSpec("adapt[async-1uH]", overrides={
        "controller": "async", "l_uh": 1.0, "r_load": 6.0,
        "sim_time": 10 * US, "dt": 1 * NS}), 2.5),
    (ScenarioSpec("adapt[async-4.7uH]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sim_time": 10 * US, "dt": 1 * NS}), 6.0),
    (ScenarioSpec("adapt[sync333-4.7uH]", overrides={
        "controller": "sync", "fsm_frequency": 333e6, "l_uh": 4.7,
        "r_load": 6.0, "sim_time": 10 * US, "dt": 1 * NS}), 8.0),
    (ScenarioSpec("adapt[sync1G-1uH]", overrides={
        "controller": "sync", "fsm_frequency": 1e9, "l_uh": 1.0,
        "r_load": 6.0, "sim_time": 10 * US, "dt": 1 * NS}), 3.0),
    (ScenarioSpec("adapt[fig6-style]", overrides={
        "controller": "async", "l_uh": 1.0,
        "load": LoadProfile([(0.0, 6.0), (6 * US, 2.5), (8 * US, 6.0)]),
        "sim_time": 10 * US, "dt": 0.5 * NS}), 2.0),
]


@pytest.fixture(scope="module")
def drift_runs():
    """``(backend, stepping) -> {spec name: Run}`` over DRIFT_SPECS for
    the three cells the drift check reads: vector fixed (the
    golden-locked reference), vector adaptive and scalar adaptive."""
    specs = [spec for spec, _ in DRIFT_SPECS]
    return {(backend, stepping): {
                run.spec.name: run for run in runs(
                    Session(backend=backend, cache="off"),
                    [variant(s, stepping=stepping) for s in specs])}
            for backend, stepping in (("vector", "fixed"),
                                      ("vector", "adaptive"),
                                      ("scalar", "adaptive"))}


@pytest.mark.parametrize("spec,ratio_floor", DRIFT_SPECS,
                         ids=lambda v: v.name if hasattr(v, "name") else None)
def test_fixed_vs_adaptive_drift_bounded(drift_runs, spec, ratio_floor):
    fixed = drift_runs["vector", "fixed"][spec.name]
    adaptive = drift_runs["vector", "adaptive"][spec.name]
    check_backends_agree(drift_runs["scalar", "adaptive"][spec.name],
                         adaptive)
    ticks_f = fixed.result.solver_ticks
    ticks_a = adaptive.result.solver_ticks
    assert ticks_f / ticks_a >= ratio_floor, (
        f"{spec.name}: adaptive only cut ticks {ticks_f / ticks_a:.1f}x "
        f"({ticks_f} -> {ticks_a}), needs >= {ratio_floor}x")
    check_stepping_drift(fixed, adaptive, "vector", **DRIFT_BOUNDS)


# ---------------------------------------------------------------------------
# Determinism and lane independence (bit-level, fast 2 us scenarios)
# ---------------------------------------------------------------------------
def _results(points):
    return [p.result for p in points]


def _adaptive_sweep():
    return (Sweep(base={"n_phases": 4, "sim_time": 2 * US, "dt": 1 * NS,
                        "stepping": "adaptive"}, seed=11, name="adet")
            .grid(controller=["async", "sync"], l_uh=[1.0, 4.7]))


def test_adaptive_sweep_repeatable():
    a = Session(cache="off").sweep(_adaptive_sweep())
    b = Session(cache="off").sweep(_adaptive_sweep())
    assert _results(a) == _results(b)


def test_adaptive_lane_independent_of_batch_composition():
    """A lane's adaptive trajectory is a pure function of its own state:
    running it alone or next to five other lanes gives identical bits —
    the property that keeps the per-lane result cache sound."""
    base = {"sim_time": 2 * US, "dt": 1 * NS, "stepping": "adaptive"}
    solo = ScenarioSpec("adet[solo]", overrides=dict(
        base, controller="async", l_uh=4.7, r_load=6.0))
    others = [ScenarioSpec(f"adet[o{k}]", overrides=dict(
        base, controller=("sync" if k % 2 else "async"),
        l_uh=1.0 + 2 * k, r_load=3.0 + k)) for k in range(5)]
    alone = Session(cache="off").sweep([solo])[0]
    batched = Session(cache="off").sweep([solo] + others)[0]
    assert alone.result == batched.result


def test_adaptive_workers_and_cache_bit_identical(tmp_path):
    """Acceptance: adaptive sweeps are deterministic across workers in
    {1, 2} with the cache cold and hot, bit-identical throughout."""
    sweep = _adaptive_sweep()
    cold = Session(cache="readwrite", cache_dir=str(tmp_path)).sweep(sweep)
    hot_w2 = Session(cache="readwrite", cache_dir=str(tmp_path),
                     workers=2)
    served = hot_w2.sweep(sweep)
    stats = hot_w2.cache_stats()
    assert stats["hits"] == len(served) and stats["misses"] == 0
    sharded = Session(cache="off", workers=2).sweep(sweep)
    assert _results(cold) == _results(served) == _results(sharded)


def test_fixed_and_adaptive_never_share_a_cache_entry(tmp_path):
    """stepping participates in the cache key: a fixed-mode run against
    a cache warmed by adaptive results misses every lane (and vice
    versa), so the two modes can never serve each other's numbers."""
    spec = {"controller": "async", "l_uh": 4.7, "r_load": 6.0,
            "sim_time": 2 * US, "dt": 1 * NS}
    warm = Session(stepping="adaptive", cache="readwrite",
                   cache_dir=str(tmp_path))
    adaptive = warm.run(spec)
    fixed_session = Session(cache="readwrite", cache_dir=str(tmp_path))
    fixed = fixed_session.run(spec)
    stats = fixed_session.cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    assert fixed.solver_ticks > 3 * adaptive.solver_ticks


def test_adaptive_noisy_lane_reproducible():
    """A noisy lane draws from its own ``Simulator.rng`` once per
    comparator per *own* sample: the jitter realization survives
    batching and repeats bit-identically."""
    spec = ScenarioSpec("adet[noise]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sensor_noise": 0.004, "sim_time": 2 * US, "dt": 1 * NS,
        "seed": 9, "stepping": "adaptive"})
    other = ScenarioSpec("adet[noise-other]", overrides=dict(
        spec.overrides, l_uh=1.0, seed=10))
    a = Session(cache="off").sweep([spec])[0]
    b = Session(cache="off").sweep([spec, other])[0]
    assert a.result == b.result


def test_adaptive_lane_clocks_stay_python_floats():
    """Step ends reach the lanes' clocks as Python floats: every lane's
    ``now`` is a ``float`` whenever something schedules on it (the
    comparator edges scheduled between step commits included), and
    after each ``advance_to`` every lane's ``now`` and every queued
    event time is a ``float`` — no NumPy scalar leaks into the event
    arithmetic."""
    base = {"sim_time": 2 * US, "dt": 1 * NS, "stepping": "adaptive"}
    specs = [ScenarioSpec(f"afloat[{k}]", overrides=dict(
        base, controller=("sync" if k % 2 else "async"), l_uh=1.0 + 2 * k,
        r_load=3.0 + k)) for k in range(4)]
    batch = VectorBatch(specs, [s.to_config() for s in specs])
    seen = collections.Counter()
    for sim in batch.sims:
        def schedule_at(time, fn, priority=0, sim=sim,
                        inner=sim.schedule_at):
            seen[type(sim.now), type(time)] += 1
            return inner(time, fn, priority)
        sim.schedule_at = schedule_at
    for t_end in (0.4 * US, 1.1 * US):
        batch.solver.advance_to(t_end)
        for lane, sim in enumerate(batch.sims):
            assert type(sim.now) is float, f"lane {lane} now"
            assert sim._queue, f"lane {lane}: nothing queued to check"
            for time, _prio, _born, _seq, event, _owner in sim._queue:
                assert type(time) is float, f"lane {lane} event {time!r}"
                assert type(event.time) is float
    assert set(seen) == {(float, float)}, seen


# ---------------------------------------------------------------------------
# Batching and configuration guard rails
# ---------------------------------------------------------------------------
def test_planner_never_mixes_stepping_modes():
    base = {"controller": "async", "sim_time": 2 * US, "dt": 1 * NS}
    configs = [
        ScenarioSpec("f", overrides=base).to_config(),
        ScenarioSpec("a", overrides=dict(base, stepping="adaptive")).to_config(),
        ScenarioSpec("f2", overrides=dict(base, l_uh=1.0)).to_config(),
    ]
    plans = plan_batches(configs)
    assert sorted(tuple(p.indices) for p in plans) == [(0, 2), (1,)]


def test_vector_batch_rejects_mixed_stepping():
    base = {"controller": "async", "sim_time": 2 * US, "dt": 1 * NS}
    specs = [ScenarioSpec("f", overrides=base),
             ScenarioSpec("a", overrides=dict(base, stepping="adaptive"))]
    with pytest.raises(ValueError, match="stepping"):
        VectorBatch(specs, [s.to_config() for s in specs])


@pytest.mark.parametrize("key, value", [
    ("dt_min", 0.5 * NS), ("dt_max", 32 * NS), ("rtol", 2e-3),
    ("atol_i", 2e-4), ("atol_v", 1e-3)])
def test_vector_batch_rejects_lanes_differing_in_one_stepping_knob(key, value):
    """Lanes share one :class:`SteppingPolicy`: a lane that differs in
    any single knob the policy resolves is refused."""
    base = {"controller": "async", "sim_time": 2 * US, "dt": 1 * NS,
            "stepping": "adaptive"}
    specs = [ScenarioSpec("p", overrides=base),
             ScenarioSpec("q", overrides=dict(base, **{key: value}))]
    with pytest.raises(ValueError, match="stepping policy"):
        VectorBatch(specs, [s.to_config() for s in specs])


def test_adaptive_rejects_zero_delays():
    spec = ScenarioSpec("zda", overrides={
        "controller": "async", "t_gate": 0.0, "stepping": "adaptive",
        "sim_time": 2 * US, "dt": 1 * NS})
    with pytest.raises(ValueError, match="adaptive stepping"):
        VectorBatch([spec], [spec.to_config()])


def test_config_validates_stepping_mode():
    with pytest.raises(ValueError, match="stepping"):
        SystemConfig(stepping="sometimes")


def test_policy_validation():
    with pytest.raises(ValueError, match="dt_min"):
        SteppingPolicy(mode="adaptive", dt=1e-9, dt_min=2e-9, dt_max=1e-9,
                       rtol=1e-3, atol_i=1e-4, atol_v=5e-4)
    with pytest.raises(ValueError, match="mode"):
        SteppingPolicy(mode="loose", dt=1e-9, dt_min=1e-9, dt_max=1e-9,
                       rtol=1e-3, atol_i=1e-4, atol_v=5e-4)
    policy = SteppingPolicy.from_config(SystemConfig(stepping="adaptive"))
    assert policy.adaptive and policy.dt_min < policy.dt < policy.dt_max


def test_session_stepping_knob():
    session = Session(stepping="adaptive", cache="off")
    assert session.defaults["stepping"] == "adaptive"
    with pytest.raises(ValueError, match="stepping"):
        Session(stepping="warp")
