"""Ablation benches for the model's design choices.

Not in the paper's tables, but quantifying its design decisions:

1. **PMIN masking** — with a minimum PMOS ON time at or above the
   synchronous latency scale, every controller's current overshoot is
   floored by PMIN x slew and the latency benefit disappears (this drove
   our PMIN calibration, see ``BuckControlParams``).
2. **PEXT** — the extended first charging cycle of a UV episode deepens
   the initial current ramp and shortens the high-load dip.
3. **A2A metastability containment** — with noisy comparators the A2A
   elements absorb marginal pulses (counted, contained) and the gate
   drives stay clean; the system never short-circuits.
4. **Token dwell** — the async ring's dwell mirrors the sync design's
   phase clock; shorter dwell spreads charging across phases faster.

All four studies run through the batched scenario engine
(:meth:`repro.Session.sweep`): each ablation is a
:class:`~repro.scenarios.Sweep` grid executed by the vectorized backend
(noisy comparator study included — each lane draws its jitter from
its own ``Simulator.rng``, as the scalar backend does).
"""

import pytest

from repro import Session, session_from_env
from repro.experiments.report import format_table
from repro.scenarios import Sweep
from repro.sim import NS, US

pytestmark = pytest.mark.bench

#: one env-configured session (REPRO_SWEEP_WORKERS / REPRO_CACHE) shared
#: by the ablation sweeps; the keep=True PEXT study uses its own inline
#: session — live handles cannot cross the pool
SESSION = session_from_env()

#: sync-vs-async controller axis used by the ablation grids
ASYNC_100MHZ = [
    ("ASYNC", {"controller": "async"}),
    ("100MHz", {"controller": "sync", "fsm_frequency": 100e6}),
]


def _base(l_uh=1.0, sim_time=8 * US, **extra):
    base = {"n_phases": 4, "l_uh": l_uh, "r_load": 6.0,
            "sim_time": sim_time, "seed": 0}
    base.update(extra)
    return base


@pytest.mark.benchmark(group="ablation")
def test_ablation_pmin_masks_latency_benefit(benchmark):
    def study():
        sweep = (Sweep(base=_base(nmin=3 * NS), name="pmin")
                 .grid(pmin=[2 * NS, 20 * NS], ctrl=ASYNC_100MHZ))
        points = SESSION.sweep(sweep, track_energy=False)
        rows = {}
        for i, pmin_ns in enumerate((2, 20)):
            rows[pmin_ns] = {
                "ASYNC": points[2 * i].result.peak_coil_current * 1e3,
                "100MHz": points[2 * i + 1].result.peak_coil_current * 1e3,
            }
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    table = [[f"PMIN={k}ns", f"{v['ASYNC']:.0f}", f"{v['100MHz']:.0f}",
              f"{v['100MHz'] - v['ASYNC']:.0f}"] for k, v in rows.items()]
    print()
    print(format_table("Ablation 1: PMIN vs the latency advantage (peak mA, 1uH)",
                       ["", "ASYNC", "100MHz", "spread"], table))
    spread_small_pmin = rows[2]["100MHz"] - rows[2]["ASYNC"]
    spread_big_pmin = rows[20]["100MHz"] - rows[20]["ASYNC"]
    assert spread_small_pmin > 1.5 * spread_big_pmin, \
        "large PMIN must compress the controller spread"


@pytest.mark.benchmark(group="ablation")
def test_ablation_pext_first_cycle(benchmark):
    def study():
        sweep = (Sweep(base=_base(l_uh=4.7, sim_time=4 * US,
                                  controller="async"), name="pext")
                 .grid(pext=[0 * NS, 40 * NS]))
        points = Session().sweep(sweep, settle=0.0, trace=True, keep=True,
                                 track_energy=False)
        out = {}
        for pext_ns, point in zip((0, 40), points):
            hl_edges = point.handle.sensors.hl.output.edges("fall")
            out[pext_ns] = {
                "hl_clear_us": (hl_edges[0] * 1e6 if hl_edges else float("inf")),
                "peak_ma": point.result.peak_coil_current * 1e3,
            }
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    print()
    print(format_table(
        "Ablation 2: PEXT at startup (async, 4.7uH)",
        ["PEXT", "HL cleared (us)", "peak (mA)"],
        [[f"{k}ns", f"{v['hl_clear_us']:.3f}", f"{v['peak_ma']:.0f}"]
         for k, v in out.items()]))
    # the extended first cycle must not delay clearing the high-load dip
    assert out[40]["hl_clear_us"] <= out[0]["hl_clear_us"] + 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_a2a_contains_noise(benchmark):
    def study():
        sweep = (Sweep(base=_base(l_uh=4.7, sensor_noise=0.004, seed=5),
                       name="noise")
                 .grid(ctrl=[("async", {"controller": "async"}),
                             ("sync", {"controller": "sync",
                                       "fsm_frequency": 333e6})]))
        # raises ShortCircuitError on violation
        points = SESSION.sweep(sweep)
        return {
            point.config.controller: {
                "metastable": point.result.metastable_events,
                "v_final": point.result.v_final,
            }
            for point in points
        }

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    print()
    print(format_table(
        "Ablation 3: noisy comparators (sigma=4mV/4mA)",
        ["controller", "contained metastability events", "V_final"],
        [[c, str(v["metastable"]), f"{v['v_final']:.3f}"]
         for c, v in out.items()]))
    # both survive; regulation continues despite sensor chatter
    for c, v in out.items():
        assert abs(v["v_final"] - 3.3) < 0.6, c


@pytest.mark.benchmark(group="ablation")
def test_ablation_token_dwell(benchmark):
    def study():
        sweep = (Sweep(base=_base(l_uh=4.7, controller="async"), name="dwell")
                 .grid(phase_dwell=[75 * NS, 150 * NS, 300 * NS]))
        points = SESSION.sweep(sweep, track_energy=False)
        out = {}
        for dwell_ns, point in zip((75, 150, 300), points):
            result = point.result
            spread = max(result.cycles) - min(result.cycles)
            out[dwell_ns] = {"ripple_mv": result.ripple * 1e3,
                             "cycle_spread": spread,
                             "cycles": sum(result.cycles)}
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    print()
    print(format_table(
        "Ablation 4: token dwell (async, 4.7uH)",
        ["dwell", "ripple (mV)", "phase cycle spread", "total cycles"],
        [[f"{k}ns", f"{v['ripple_mv']:.0f}", str(v["cycle_spread"]),
          str(v["cycles"])] for k, v in out.items()]))
    # the ring must distribute work at every dwell setting
    for k, v in out.items():
        assert v["cycles"] > 20
