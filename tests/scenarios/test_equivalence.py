"""Vectorized-vs-scalar cross-validation: the batched engine must
reproduce the scalar solver exactly.

The vectorized path is arithmetically bit-matched to the scalar path,
in fixed and in adaptive stepping, and a noisy lane draws its comparator
jitter from its own ``Simulator.rng`` in the scalar order, so nothing is
tolerated:

- waveforms (V_out and every coil current) are equal sample for sample;
- comparator output edges have identical counts and identical times;
- every RunResult physics field (losses and efficiency included) and
  controller statistic is equal.

The scenario set is a seeded random grid over both controllers, the
Fig. 7 coil/load ranges, and the PMIN ablation axis, plus hand-picked
corner cases (stepped Fig. 6-style load; OV-mode entry from a high
initial voltage; noisy sensors on a gated sync lane), each run on both
stepping grids.
"""

import pytest

from repro.analog.load import LoadProfile
from repro.scenarios import ScenarioSpec, Sweep, choice, cross_validate, log_uniform, uniform
from repro.sim import NS, US

STEPPINGS = ("fixed", "adaptive")

#: fewest compared samples per stepping mode: a 2 us run is 2000 fixed
#: 1 ns steps, while the adaptive grid commits 75 to ~1,250 steps
MIN_SAMPLES = {"fixed": 1000, "adaptive": 50}

#: 8 seeded random scenarios (2 us runs keep the grid fast)
RANDOM_SPECS = (Sweep(base={"n_phases": 4, "sim_time": 2 * US, "dt": 1 * NS},
                      seed=101, name="xval")
                .random(8,
                        controller=choice(["async", "sync"]),
                        fsm_frequency=choice([100e6, 333e6, 1000e6]),
                        l_uh=log_uniform(1.0, 10.0),
                        r_load=uniform(3.0, 15.0),
                        pmin=choice([2 * NS, 20 * NS]))).specs()

CORNER_SPECS = [
    ScenarioSpec("xval[fig6-load]", overrides={
        "controller": "async", "l_uh": 1.0,
        "load": LoadProfile([(0.0, 6.0), (0.8 * US, 2.5), (1.4 * US, 6.0)]),
        "sim_time": 2 * US, "dt": 1 * NS}),
    ScenarioSpec("xval[ov-entry]", overrides={
        "controller": "sync", "fsm_frequency": 333e6, "l_uh": 1.0,
        "r_load": 30.0, "v_out0": 3.52, "sim_time": 2 * US, "dt": 1 * NS}),
    ScenarioSpec("xval[noisy]", overrides={
        "controller": "sync", "fsm_frequency": 333e6, "l_uh": 2.2,
        "r_load": 8.0, "pmin": 20 * NS, "sensor_noise": 0.004,
        "sim_time": 2 * US, "dt": 1 * NS}),
]


def _stepped(spec, stepping):
    return ScenarioSpec(spec.name, overrides=dict(spec.overrides,
                                                  stepping=stepping),
                        seed=spec.seed)


def _check(cv, stepping):
    where = f"{cv.spec.name} [{stepping}]"
    assert cv.n_samples > MIN_SAMPLES[stepping], \
        f"{where}: cross-validation barely sampled anything"
    assert cv.sample_counts_match, (
        f"{where}: backends took different step counts "
        f"({cv.n_samples_scalar} vs {cv.n_samples_vector})")
    assert cv.v_err == 0.0, f"{where}: V_out diverged ({cv.v_err})"
    assert cv.i_err == 0.0, f"{where}: coil current diverged ({cv.i_err})"
    assert cv.edge_counts_match, (
        f"{where}: comparator edge counts differ: "
        + ", ".join(f"{e.name} {e.count_scalar}/{e.count_vector}"
                    for e in cv.edges if not e.counts_match))
    assert cv.max_edge_dt == 0.0, \
        f"{where}: comparator edge times shifted ({cv.max_edge_dt})"
    s, v = cv.result_scalar, cv.result_vector
    for name in ("v_final", "peak_coil_current", "ripple", "coil_loss_w",
                 "efficiency", "cycles", "ov_events", "metastable_events",
                 "solver_ticks"):
        assert getattr(v, name) == getattr(s, name), (
            f"{where}: {name} diverged (scalar {getattr(s, name)!r}, "
            f"vector {getattr(v, name)!r})")


@pytest.mark.parametrize("stepping", STEPPINGS)
@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=lambda s: s.name)
def test_random_scenarios_match_scalar(spec, stepping):
    _check(cross_validate(_stepped(spec, stepping)), stepping)


@pytest.mark.parametrize("stepping", STEPPINGS)
@pytest.mark.parametrize("spec", CORNER_SPECS, ids=lambda s: s.name)
def test_corner_scenarios_match_scalar(spec, stepping):
    _check(cross_validate(_stepped(spec, stepping)), stepping)


def test_headline_measurements_match_scalar():
    """RunResult parity beyond waveforms: losses, efficiency, cycles."""
    spec = ScenarioSpec("xval[results]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sim_time": 2 * US, "dt": 1 * NS})
    _check(cross_validate(spec), "fixed")
