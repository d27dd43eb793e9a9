"""Cross-backend differential harness for clock gating.

A seeded generator draws random scenarios (phase count, controller kind
and clock frequency, coil, load, controller timing, duration) and runs
every one across the full execution matrix

    {scalar, vector} x {fixed, adaptive} x {gating auto, off}

asserting exactly the equivalences the implementation promises:

- **gating is unobservable** — with backend and stepping held fixed,
  ``gating="auto"`` reproduces ``gating="off"`` as a whole
  ``RunResult`` and in the lane's final ``Simulator.rng`` state.  Only
  the kernel activity counters (events delivered, clock edges
  simulated/skipped) may differ: that activity reduction is the entire
  point of the mode, and the edge ledger must still balance (every
  off-mode edge is either simulated or skipped, less at most one
  suspended tail);
- **backends agree under gating** — scalar and vector runs of the same
  gated scenario are equal as whole ``RunResult`` objects up to the
  delivered-event count, as the ungated equivalence suite promises,
  and end with equal ``Simulator.rng`` states.  The results include
  the clock-edge counters, so the backends make identical gating
  decisions, because the vector lane bound replicates the scalar
  crossing arithmetic operation for operation;
- **stepping modes drift boundedly** — fixed vs adaptive under gating
  stays inside the documented drift bounds of the adaptive suite.  This
  holds for the noiseless specs only: sensor jitter is drawn once per
  comparator sample, so the two step grids see different noise
  processes, not a drifted copy of one.

Every other spec has noisy sensors; the first two equivalences hold
bit for bit on those too.  ``Simulator.rng`` is a lane's only source of
randomness (metastability draws and, on noisy lanes, one jitter draw
per comparator per sample), so comparing its final state pins every
draw by value: one stray draw anywhere moves it, even when no result
field shows it.

Both comparisons follow the shared rule of ``tests/scenarios/oracle.py``.
Every assertion message embeds a one-line repro (constructor call with
the fully expanded overrides) so a failing seed can be replayed without
re-running the batch.  The quick batch below is tier-1; a larger batch
carries the ``bench`` marker and runs in its own blocking CI job.
"""

import warnings

import pytest

from repro import Session
from repro.control.sync_controller import SyncMultiphaseController
from repro.scenarios import ScenarioSpec, Sweep, choice, log_uniform, uniform
from repro.sim import NS, US

from .oracle import (GATING_COUNTERS, blind, check_backends_agree,
                     check_stepping_drift, differing, repro, runs, variant,
                     where)

BACKENDS = ("scalar", "vector")
MODES = tuple((s, g) for s in ("fixed", "adaptive") for g in ("off", "auto"))

#: fixed-vs-adaptive drift bounds: the adaptive suite's documented
#: bounds (tests/scenarios/test_adaptive.py) with extra headroom for the
#: randomized scenario space, and a 2-cycle slack on the cycle count
DRIFT_BOUNDS = dict(peak_tol=0.006, ripple_rel=0.30, ripple_abs=0.012,
                    cycle_rel=0.10, cycle_slack=2)


#: comparator jitter of the noisy half of each batch
SENSOR_NOISE = 0.004


def differential_specs(count, master_seed, sim_time):
    """Seeded random scenario batch spanning the gating-relevant axes.

    ``r_load`` is always drawn explicitly: the two backends have
    different *default* loads, so an implicit load would confound the
    differential comparison with a pre-existing configuration split.
    Every other spec (odd index) gets noisy sensors after the draw, so
    the noise axis leaves the drawn values themselves unchanged.
    """
    specs = (Sweep(base={"dt": 1 * NS, "sim_time": sim_time},
                   seed=master_seed, name="diff")
             .random(count,
                     n_phases=choice([2, 4]),
                     controller=choice(["async", "sync"]),
                     fsm_frequency=choice([100e6, 333e6, 1000e6, 4000e6]),
                     l_uh=log_uniform(1.0, 10.0),
                     r_load=uniform(3.0, 15.0),
                     pmin=choice([2 * NS, 20 * NS]))).specs()
    return [ScenarioSpec(s.name, overrides=dict(s.overrides,
                                                sensor_noise=SENSOR_NOISE),
                         seed=s.seed) if k % 2 else s
            for k, s in enumerate(specs)]


def _run_matrix(specs):
    """Run ``specs`` through every (backend, stepping, gating) cell."""
    out = {}
    for backend in BACKENDS:
        session = Session(backend=backend, cache="off")
        for stepping, gating in MODES:
            out[backend, stepping, gating] = runs(session, [
                variant(s, stepping=stepping, gating=gating) for s in specs])
    return out


def _check_gating_unobservable(backend, off_run, auto_run):
    at, line = where(auto_run, backend), repro(auto_run, backend)
    off = blind(off_run.result, *GATING_COUNTERS)
    auto = blind(auto_run.result, *GATING_COUNTERS)
    assert auto == off, (
        f"{at}: gating=auto changed observable results on "
        f"{differing(off, auto)}\n  {line}")
    assert auto_run.rng == off_run.rng, (
        f"{at}: gating=auto moved the lane's Simulator.rng state\n  {line}")
    # the edge ledger balances: each off-mode edge is simulated or
    # skipped in auto mode, minus at most one still-suspended tail
    # (edges past the final wake are neither delivered nor replayed)
    off, auto = off_run.result, auto_run.result
    total = auto.clock_edges_simulated + auto.clock_edges_skipped
    assert total <= off.clock_edges_simulated, (
        f"{at}: gated run invented clock edges "
        f"({total} > {off.clock_edges_simulated})\n  {line}")
    assert auto.events_delivered <= off.events_delivered, (
        f"{at}: gating increased delivered events\n  {line}")


# ---------------------------------------------------------------------------
# Tier-1 quick batch
# ---------------------------------------------------------------------------
#: eight draws, so the noiseless half the drift check covers is still
#: four specs, including a gating sync lane (``rand6``), plus a 1 GHz
#: sync lane whose gates end on PMIN/NMIN wake timers, which no draw
#: fires
QUICK_SPECS = differential_specs(8, master_seed=202, sim_time=2 * US) + [
    ScenarioSpec("diff[timer]", overrides={
        "dt": 1 * NS, "sim_time": 2 * US, "n_phases": 4,
        "controller": "sync", "fsm_frequency": 1000e6, "l_uh": 1.0,
        "r_load": 6.0, "pmin": 20 * NS}, seed=46)]
_IDS = [s.name for s in QUICK_SPECS]
_NOISELESS = [i for i, s in enumerate(QUICK_SPECS)
              if "sensor_noise" not in s.overrides]


@pytest.fixture(scope="module")
def matrix():
    """The quick batch's cells, plus the number of PMIN/NMIN wake-timer
    firings over all of them under ``"timer wakes"``."""
    wakes = []
    on_wake_timer = SyncMultiphaseController._on_wake_timer

    def counted(self):
        wakes.append(self)
        on_wake_timer(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyncMultiphaseController, "_on_wake_timer", counted)
        cells = _run_matrix(QUICK_SPECS)
    cells["timer wakes"] = len(wakes)
    return cells


@pytest.mark.parametrize("idx", range(len(QUICK_SPECS)), ids=_IDS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stepping", ["fixed", "adaptive"])
def test_gating_is_unobservable(matrix, idx, backend, stepping):
    _check_gating_unobservable(
        backend, matrix[backend, stepping, "off"][idx],
        matrix[backend, stepping, "auto"][idx])


@pytest.mark.parametrize("idx", range(len(QUICK_SPECS)), ids=_IDS)
@pytest.mark.parametrize("stepping,gating", MODES,
                         ids=[f"{s}-{g}" for s, g in MODES])
def test_backends_agree(matrix, idx, stepping, gating):
    check_backends_agree(
        matrix["scalar", stepping, gating][idx],
        matrix["vector", stepping, gating][idx])


@pytest.mark.parametrize("idx", _NOISELESS,
                         ids=[_IDS[i] for i in _NOISELESS])
@pytest.mark.parametrize("backend", BACKENDS)
def test_stepping_drift_bounded_under_gating(matrix, idx, backend):
    check_stepping_drift(
        matrix[backend, "fixed", "auto"][idx],
        matrix[backend, "adaptive", "auto"][idx], backend, **DRIFT_BOUNDS)


def test_gating_engages_somewhere(matrix):
    """The batch actually exercises the fast-forward path: at least one
    sync-controller lane skips edges (async lanes have no clock, so a
    batch of only-async draws would silently test nothing), and some
    gate ends on a PMIN/NMIN wake timer, so the state comparison covers
    the code that runs in place of the skipped edges."""
    skipped = sum(run.result.clock_edges_skipped
                  for run in matrix["scalar", "fixed", "auto"])
    assert skipped > 0, "no lane ever gated; widen the spec generator"
    assert matrix["timer wakes"] > 0, \
        "no gate ended on a PMIN/NMIN wake timer; add a spec that does"


#: the two draws of the full batch whose gating decisions split across
#: backends at t_gate = 0 while the vector tick drained same-instant
#: events before stepping
ZERO_DELAY_SPECS = [s for s in differential_specs(16, master_seed=303,
                                                  sim_time=5 * US)
                    if s.name in ("diff[rand4]", "diff[rand7]")]
ZERO_DELAYS = {"sensor": {"sensor_delay": 0.0}, "gate": {"t_gate": 0.0},
               "both": {"sensor_delay": 0.0, "t_gate": 0.0}}


@pytest.mark.parametrize("zero", sorted(ZERO_DELAYS))
@pytest.mark.parametrize("gating", ["off", "auto"])
def test_zero_delay_backends_agree(zero, gating):
    """Zero sensor or gate delay puts comparator and gate edges on the
    exact instants of solver micro-steps; the tick event orders them by
    scheduling sequence on both backends, so they still agree (and the
    vector batch raises no warning)."""
    specs = [variant(s, stepping="fixed", gating=gating, **ZERO_DELAYS[zero])
             for s in ZERO_DELAY_SPECS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = runs(Session(backend="scalar", cache="off"), specs)
        vector = runs(Session(backend="vector", cache="off"), specs)
    for s, v in zip(scalar, vector):
        check_backends_agree(s, v)


# ---------------------------------------------------------------------------
# CI bench batch: same checks, 4x the scenarios, longer runs
# ---------------------------------------------------------------------------
@pytest.mark.bench
def test_differential_full_batch():
    # 32 draws: the noisy half leaves 16 noiseless specs to the drift
    # check (the draws are prefix-stable, so the first 16 are unchanged)
    specs = differential_specs(32, master_seed=303, sim_time=5 * US)
    matrix = _run_matrix(specs)
    for i, spec in enumerate(specs):
        for backend in BACKENDS:
            for stepping in ("fixed", "adaptive"):
                _check_gating_unobservable(
                    backend, matrix[backend, stepping, "off"][i],
                    matrix[backend, stepping, "auto"][i])
        for stepping, gating in MODES:
            check_backends_agree(
                matrix["scalar", stepping, gating][i],
                matrix["vector", stepping, gating][i])
        if "sensor_noise" in spec.overrides:
            continue
        for backend in BACKENDS:
            check_stepping_drift(
                matrix[backend, "fixed", "auto"][i],
                matrix[backend, "adaptive", "auto"][i], backend,
                **DRIFT_BOUNDS)
