"""Determinism guarantees of the batched scenario engine.

Same sweep spec + same seed must give bit-identical results — across
repeated runs, and (with noiseless sensors) independent of which other
lanes share the batch.
"""

from repro import Session
from repro.scenarios import ScenarioSpec, Sweep, choice, uniform
from repro.sim import NS, US


def run_sweep(specs, **kw):
    """The Session front door (cache off — determinism must not depend
    on any cached state)."""
    return Session(cache="off").sweep(specs, **kw)


def _sweep():
    return (Sweep(base={"n_phases": 4, "sim_time": 2 * US, "dt": 1 * NS},
                  seed=55, name="det")
            .random(6,
                    controller=choice(["async", "sync"]),
                    l_uh=uniform(1.0, 10.0),
                    r_load=uniform(3.0, 15.0)))


def _results(points):
    return [p.result for p in points]


def test_same_sweep_same_seed_bit_identical():
    a = run_sweep(_sweep())
    b = run_sweep(_sweep())
    assert _results(a) == _results(b)


def test_waveforms_bit_identical_across_runs():
    """Two traced runs give equal traces: the analog channels and every
    digital channel (comparators, gate drives, tokens)."""
    spec = ScenarioSpec("det[wave]", overrides={
        "controller": "async", "l_uh": 2.25, "r_load": 6.0,
        "sim_time": 2 * US, "dt": 1 * NS})
    [a] = run_sweep([spec], trace=True)
    [b] = run_sweep([spec], trace=True)
    assert a.result.trace is not None
    assert a.result.trace == b.result.trace


def test_lane_results_independent_of_batch_composition():
    """A noiseless lane's numbers don't depend on its batch neighbours."""
    spec = ScenarioSpec("det[solo]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sim_time": 2 * US, "dt": 1 * NS})
    others = [ScenarioSpec(f"det[other{k}]", overrides={
        "controller": "async", "l_uh": 1.0 + k, "r_load": 3.0 + k,
        "sim_time": 2 * US, "dt": 1 * NS}) for k in range(5)]

    solo = run_sweep([spec])[0]
    batched = run_sweep([spec] + others)[0]
    assert solo.result == batched.result


def test_noisy_lane_is_reproducible():
    """Sensor noise draws come from the lane's own seeded
    ``Simulator.rng``."""
    spec = ScenarioSpec("det[noise]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sensor_noise": 0.004, "sim_time": 2 * US, "dt": 1 * NS,
        "seed": 9})
    a = run_sweep([spec])[0]
    b = run_sweep([spec])[0]
    assert a.result == b.result
    # and a different seed produces a different realization: the
    # jitter moves the comparator edges and with them V_out
    spec2 = ScenarioSpec("det[noise2]", overrides=dict(spec.overrides,
                                                       seed=10))
    c = run_sweep([spec2])[0]
    assert c.result.v_final != a.result.v_final
