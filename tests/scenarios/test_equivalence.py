"""Vectorized-vs-scalar cross-validation: the batched engine must
reproduce the scalar solver exactly.

The vectorized path is arithmetically bit-matched to the scalar path,
in fixed and in adaptive stepping, and a noisy lane draws its comparator
jitter from its own ``Simulator.rng`` in the scalar order, so nothing is
tolerated.  Each stepping mode runs every spec through one traced
``Session.sweep`` per backend (the vector side batched, as Fig. 7a
traffic runs), and each pair of results must be equal as whole
``RunResult`` objects up to the kernel event counter (see
``tests/scenarios/oracle.py``).  That covers every physics field and
controller statistic, the solver tick count, the lane's final
``Simulator.rng`` state and the trace: V_out, every coil current, every
comparator edge, the gate drives and the token/act channels.

The scenario set is a seeded random grid over both controllers, the
Fig. 7 coil/load ranges, and the PMIN ablation axis, plus hand-picked
corner cases (stepped Fig. 6-style load; OV-mode entry from a high
initial voltage; noisy sensors on a gated sync lane; a 4.7 uH async
lane), each run on both stepping grids.  One more corner runs on the
fixed grid alone, which is the only grid that accepts zero delays:
eight seeds of a gated, noisy sync lane with zero sensor and gate delay,
whose comparator edges fall on the instants of other events, so their
birth order must match.
"""

import pytest

from repro import Session
from repro.analog.load import LoadProfile
from repro.scenarios import ScenarioSpec, Sweep, choice, log_uniform, uniform
from repro.sim import NS, US

from .oracle import check_backends_agree, runs, variant

STEPPINGS = ("fixed", "adaptive")

#: fewest traced V_out samples per stepping mode: a 2 us run is 2000
#: fixed 1 ns steps, while the adaptive grid commits 75 to ~1,250 steps
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
    # starts above V_max (3.55 V), so every phase enters OV mode
    ScenarioSpec("xval[ov-entry]", overrides={
        "controller": "sync", "fsm_frequency": 333e6, "l_uh": 1.0,
        "r_load": 30.0, "v_out0": 3.7, "sim_time": 2 * US, "dt": 1 * NS}),
    ScenarioSpec("xval[noisy]", overrides={
        "controller": "sync", "fsm_frequency": 333e6, "l_uh": 2.2,
        "r_load": 8.0, "pmin": 20 * NS, "sensor_noise": 0.004,
        "sim_time": 2 * US, "dt": 1 * NS}),
    ScenarioSpec("xval[results]", overrides={
        "controller": "async", "l_uh": 4.7, "r_load": 6.0,
        "sim_time": 2 * US, "dt": 1 * NS}),
]

SPECS = RANDOM_SPECS + CORNER_SPECS

#: fixed stepping only; adaptive stepping rejects zero delays.  The
#: noise makes the lanes' edges tie with other events; a vector edge
#: born at the wrong instant changes the run of two of the eight seeds.
ZERO_DELAY_SPECS = [ScenarioSpec(f"xval[zero-delay{seed}]", seed=seed,
                                 overrides={
    "controller": "sync", "fsm_frequency": 1000e6, "n_phases": 2,
    "l_uh": 1.65, "r_load": 11.2, "pmin": 20 * NS, "gating": "auto",
    "sensor_delay": 0.0, "t_gate": 0.0, "sensor_noise": 0.004,
    "stepping": "fixed", "sim_time": 2 * US, "dt": 1 * NS})
                    for seed in range(8)]


@pytest.fixture(scope="module")
def swept():
    """``(backend, stepping) -> one traced Run per spec of SPECS``."""
    return {(backend, stepping): runs(
                Session(backend=backend, cache="off"),
                [variant(s, stepping=stepping) for s in SPECS], trace=True)
            for backend in ("scalar", "vector") for stepping in STEPPINGS}


def _check(swept, spec, stepping):
    i = SPECS.index(spec)
    s_run = swept["scalar", stepping][i]
    v_run = swept["vector", stepping][i]
    n = s_run.result.trace.n_samples("v_load")
    assert n > MIN_SAMPLES[stepping], \
        f"{spec.name} [{stepping}]: cross-validation barely sampled anything"
    check_backends_agree(s_run, v_run)


@pytest.mark.parametrize("stepping", STEPPINGS)
@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=lambda s: s.name)
def test_random_scenarios_match_scalar(swept, spec, stepping):
    _check(swept, spec, stepping)


@pytest.mark.parametrize("stepping", STEPPINGS)
@pytest.mark.parametrize("spec", CORNER_SPECS, ids=lambda s: s.name)
def test_corner_scenarios_match_scalar(swept, spec, stepping):
    _check(swept, spec, stepping)


def test_zero_delay_scenarios_match_scalar():
    scalar, vector = (
        runs(Session(backend=backend, cache="off"), ZERO_DELAY_SPECS,
             trace=True)
        for backend in ("scalar", "vector"))
    for s_run, v_run in zip(scalar, vector):
        name = s_run.spec.name
        assert s_run.result.trace.n_samples("v_load") > MIN_SAMPLES["fixed"]
        assert s_run.result.clock_edges_skipped > 0, f"{name} never gated"
        check_backends_agree(s_run, v_run)


#: eight and twelve phases: every phase sum (dv/dt, input energy, coil
#: losses) must add the phases in order on the vector side too, where a
#: NumPy reduce goes pairwise from eight elements
MANY_PHASE_SPECS = [
    ScenarioSpec(f"xval[{p}-phase {ctrl}]", overrides={
        "controller": ctrl, "n_phases": p, "l_uh": l_uh, "r_load": 3.0,
        "sim_time": 2 * US, "dt": 1 * NS})
    for p, ctrl, l_uh in ((8, "async", 3.3), (8, "sync", 3.3),
                          (12, "sync", 1.0), (12, "sync", 3.3))]


@pytest.mark.parametrize("lanes", [1, 2], ids=["one-lane", "two-lane"])
def test_many_phase_scenarios_match_scalar(lanes):
    """Coil losses, energies and traces of 8- and 12-phase runs equal
    the scalar backend's, in one-lane batches (where an axis-0 reduce
    over the phase rows is contiguous) and in two-lane ones."""
    specs = MANY_PHASE_SPECS if lanes == 2 else MANY_PHASE_SPECS[::2]
    scalar, vector = (
        runs(Session(backend=backend, cache="off"), specs, trace=True)
        for backend in ("scalar", "vector"))
    for s_run, v_run in zip(scalar, vector):
        check_backends_agree(s_run, v_run)
