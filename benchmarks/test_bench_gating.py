"""Bench: clock-gated event fast-forward vs the always-on clocks.

The ISSUE-6 acceptance benchmark: the Fig. 7a quick grid (five
controllers x four coils, 10 us runs at 1 ns step, 6 Ohm load) is
executed twice through the session front door — once with
``gating="off"`` (the PR 5 baseline behaviour) and once with
``gating="auto"`` — and compared on

- **simulated clock edges** (summed over the grid): gating must cut
  them at least :data:`EDGE_FLOOR` x.  Edge counts are a deterministic
  function of the scenarios (and are golden-locked per lane in
  ``tests/golden/test_golden_events.py``), so this floor gates
  unconditionally;
- **wall clock**: machine-dependent, so the :data:`SPEEDUP_FLOOR` only
  gates under ``REPRO_REQUIRE_SPEEDUP=1`` (the non-blocking CI bench
  job), matching the PR 2 convention;
- **bit-exactness**: gating promises *identical* observable results —
  whole ``RunResult`` objects compared with ``==`` once the clock-edge
  and event counters are blanked (``tests/scenarios/oracle.py``); any
  drift at all fails the bench (the broad differential matrix lives in
  ``tests/scenarios/test_differential.py``).

The measurements land in a ``BENCH_gating.json`` artifact (cwd) with
per-lane edge/event counters and the aggregate ratios, so CI runs leave
a comparable record next to ``BENCH_adaptive.json``.
"""

import json
import os
import time

import pytest

from repro import Session
from repro.experiments.fig7 import controller_axis, default_l_values
from repro.scenarios import Sweep
from repro.sim import NS, UH, US
from tests.scenarios.oracle import GATING_COUNTERS, blind

pytestmark = pytest.mark.bench

#: aggregate simulated-clock-edge reduction the gated grid must reach
EDGE_FLOOR = 5.0
#: wall-clock speedup floor (only gates under REPRO_REQUIRE_SPEEDUP=1)
SPEEDUP_FLOOR = 2.0

REQUIRE_SPEEDUP = os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1"

ARTIFACT = "BENCH_gating.json"


def _quick_grid(gating):
    axis = [(f"{l / UH:g}uH", {"l_uh": l / UH})
            for l in default_l_values(quick=True)]
    return (Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                        "dt": 1 * NS, "seed": 0, "gating": gating},
                  name=f"fig7a-quick-{gating}")
            .grid(ctrl=controller_axis(), pt=axis))


@pytest.mark.benchmark(group="gating")
def test_gating_edge_and_wallclock_reduction(benchmark):
    session = Session(backend="vector", cache="off")
    off_specs = _quick_grid("off").specs()
    auto_specs = _quick_grid("auto").specs()
    assert len(off_specs) == len(auto_specs) == 20

    def run_both():
        t0 = time.perf_counter()
        off = session.sweep(off_specs, track_energy=False)
        t_off = time.perf_counter() - t0
        t0 = time.perf_counter()
        auto = session.sweep(auto_specs, track_energy=False)
        t_auto = time.perf_counter() - t0
        return off, t_off, auto, t_auto

    off, t_off, auto, t_auto = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    edges_off = sum(p.result.clock_edges_simulated for p in off)
    edges_auto = sum(p.result.clock_edges_simulated for p in auto)
    skipped = sum(p.result.clock_edges_skipped for p in auto)
    events_off = sum(p.result.events_delivered for p in off)
    events_auto = sum(p.result.events_delivered for p in auto)
    edge_ratio = edges_off / edges_auto
    speedup = t_off / t_auto
    drifted = [o.spec.name for o, a in zip(off, auto)
               if blind(o.result, *GATING_COUNTERS)
               != blind(a.result, *GATING_COUNTERS)]

    lanes = [{
        "spec": o.spec.name.replace("fig7a-quick-off", "lane"),
        "edges_off": o.result.clock_edges_simulated,
        "edges_auto": a.result.clock_edges_simulated,
        "edges_skipped": a.result.clock_edges_skipped,
        "events_off": o.result.events_delivered,
        "events_auto": a.result.events_delivered,
    } for o, a in zip(off, auto)]
    payload = {
        "grid": "fig7a-quick (5 controllers x 4 coils, 10 us, dt=1 ns)",
        "edges_off": edges_off,
        "edges_auto": edges_auto,
        "edges_skipped": skipped,
        "edge_ratio": edge_ratio,
        "events_off": events_off,
        "events_auto": events_auto,
        "wall_clock_off_s": t_off,
        "wall_clock_auto_s": t_auto,
        "wall_clock_speedup": speedup,
        "edge_floor": EDGE_FLOOR,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_gated": REQUIRE_SPEEDUP,
        "lanes": lanes,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)

    print()
    print(f"fig7a quick grid: {edges_off} simulated clock edges -> "
          f"{edges_auto} ({edge_ratio:.2f}x fewer, {skipped} skipped); "
          f"events {events_off} -> {events_auto}; wall clock "
          f"{t_off:.2f} s -> {t_auto:.2f} s ({speedup:.2f}x); "
          f"artifact: {ARTIFACT}")

    assert not drifted, (
        f"gating changed observable results on lanes {drifted} — "
        f"it promises bit-exactness")
    assert edge_ratio >= EDGE_FLOOR, (
        f"gating only cut simulated clock edges {edge_ratio:.2f}x on "
        f"the fig7a quick grid (required {EDGE_FLOOR}x)")
    if REQUIRE_SPEEDUP:
        assert speedup >= SPEEDUP_FLOOR, (
            f"gating only {speedup:.2f}x faster in wall clock "
            f"(required {SPEEDUP_FLOOR}x)")
