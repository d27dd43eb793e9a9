"""Golden regression: lock the kernel activity counters.

Clock gating changes *how much work* the kernel does without changing
any observable result, so the usual physics goldens cannot see it.
These locks pin the activity ledger itself — events delivered through
the kernel loop, clock edges actually simulated, and clock edges
fast-forwarded — for every lane of the Fig. 7a quick grid
(``gating="auto"``, vector backend, seed 0).

``events_delivered`` counts only events that do something: a flop's
clk->Q settle that would re-apply the value Q already holds is never
scheduled, so it is not counted (the edge counters are unaffected).

The counters are deterministic: a pure function of the scenario, never
of wall clock, worker count, or batch composition.  They are locked
**exactly** — any change means the gating heuristic, wake wiring, or
event scheduling changed, and the numbers here (plus the README table)
must be regenerated deliberately.

Async lanes have no controller clock, so their edge counters pin at
zero; their event counts still lock the comparator/handshake traffic.
"""

import pytest

from repro import Session
from repro.experiments.fig7 import controller_axis, default_l_values
from repro.scenarios import Sweep
from repro.sim import NS, UH, US

#: measured golden counters (seed 0; events re-locked when no-op flop
#: settles stopped being scheduled, sync lanes again when re-armed clock
#: edges took their ungated order among same-instant events):
#: name -> (events_delivered, clock_edges_simulated, clock_edges_skipped)
GOLDEN = {
    "fig7a[ctrl=100MHz,pt=1uH]": (5450, 2677, 1300),
    "fig7a[ctrl=100MHz,pt=2.25uH]": (3785, 2102, 1896),
    "fig7a[ctrl=100MHz,pt=4.7uH]": (2834, 1474, 2523),
    "fig7a[ctrl=100MHz,pt=10uH]": (2199, 1132, 2829),
    "fig7a[ctrl=333MHz,pt=1uH]": (10309, 5533, 7784),
    "fig7a[ctrl=333MHz,pt=2.25uH]": (5872, 3011, 10200),
    "fig7a[ctrl=333MHz,pt=4.7uH]": (4507, 2187, 11118),
    "fig7a[ctrl=333MHz,pt=10uH]": (3353, 1620, 11569),
    "fig7a[ctrl=666MHz,pt=1uH]": (15670, 8910, 17703),
    "fig7a[ctrl=666MHz,pt=2.25uH]": (8658, 4868, 21764),
    "fig7a[ctrl=666MHz,pt=4.7uH]": (5900, 2791, 23814),
    "fig7a[ctrl=666MHz,pt=10uH]": (4290, 1974, 24475),
    "fig7a[ctrl=1GHz,pt=1uH]": (18105, 10742, 29191),
    "fig7a[ctrl=1GHz,pt=2.25uH]": (9596, 5476, 34135),
    "fig7a[ctrl=1GHz,pt=4.7uH]": (6745, 3424, 36249),
    "fig7a[ctrl=1GHz,pt=10uH]": (4380, 2076, 37529),
    "fig7a[ctrl=ASYNC,pt=1uH]": (18006, 0, 0),
    "fig7a[ctrl=ASYNC,pt=2.25uH]": (9729, 0, 0),
    "fig7a[ctrl=ASYNC,pt=4.7uH]": (7437, 0, 0),
    "fig7a[ctrl=ASYNC,pt=10uH]": (4984, 0, 0),
}

#: aggregate edge-reduction floor the README advertises for this grid:
#: (simulated + skipped) / simulated across the sync lanes
EDGE_RATIO_FLOOR = 5.0


def _quick_grid():
    axis = [(f"{l / UH:g}uH", {"l_uh": l / UH})
            for l in default_l_values(quick=True)]
    return (Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                        "dt": 1 * NS, "seed": 0, "gating": "auto"},
                  name="fig7a")
            .grid(ctrl=controller_axis(), pt=axis)).specs()


@pytest.fixture(scope="module")
def grid_points():
    return Session(backend="vector", cache="off").sweep(_quick_grid())


def test_grid_covers_every_golden_lane(grid_points):
    assert sorted(p.spec.name for p in grid_points) == sorted(GOLDEN)


def test_event_counters_locked(grid_points):
    drifted = []
    for p in grid_points:
        r = p.result
        got = (r.events_delivered, r.clock_edges_simulated,
               r.clock_edges_skipped)
        want = GOLDEN[p.spec.name]
        if got != want:
            drifted.append(f"  {p.spec.name}: {want} -> {got}")
    assert not drifted, (
        "kernel activity counters drifted "
        "(events_delivered, edges_simulated, edges_skipped):\n"
        + "\n".join(drifted)
        + "\nIf the gating heuristic changed deliberately, regenerate "
        "these goldens and the README table together.")


def test_edge_reduction_floor_locked(grid_points):
    """The headline claim: gating leaves < 1/5 of the clock edges to
    simulate on the quick grid (sync lanes; async lanes have no clock)."""
    sim = sum(p.result.clock_edges_simulated for p in grid_points)
    skip = sum(p.result.clock_edges_skipped for p in grid_points)
    assert sim > 0 and skip > 0
    ratio = (sim + skip) / sim
    assert ratio >= EDGE_RATIO_FLOOR, (
        f"edge reduction fell to {ratio:.2f}x "
        f"(floor {EDGE_RATIO_FLOOR}x): {sim} simulated, {skip} skipped")


def test_async_lanes_never_count_clock_edges(grid_points):
    for p in grid_points:
        if "ASYNC" in p.spec.name:
            assert (p.result.clock_edges_simulated,
                    p.result.clock_edges_skipped) == (0, 0), (
                f"{p.spec.name}: async controller reported clock edges")
