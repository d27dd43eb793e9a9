"""Bench: sharded traced sweeps — bit-identity and the wall-clock win.

``Session.sweep(trace=True, workers=N)`` — waveforms come back through
the process pool — timed against the inline traced sweep on the Fig. 7a
quick grid (five controllers x four coils, 10 us runs, 6 Ohm load),
recorded in ``BENCH_trace.json``.  Bit-identity of every TraceSet
asserts unconditionally, and the blocking CI ``differential`` job runs
this bench for it; the wall-clock floor (:data:`SPEEDUP_FLOOR`) is
machine-dependent and only gates under ``REPRO_REQUIRE_SPEEDUP=1`` (the
non-blocking CI bench job) *and* with at least two cores available — a
single-core host cannot speed anything up by sharding.

The deterministic trace-memory floor (adaptive idle-lane compaction)
is a tier-1 test: ``tests/trace/test_recorders.py``.
"""

import json
import os
import time

import pytest

from repro import Session
from repro.experiments.fig7 import controller_axis, default_l_values
from repro.scenarios import Sweep
from repro.sim import NS, UH, US

pytestmark = pytest.mark.bench

#: sharded-vs-inline traced sweep speedup (gates under REPRO_REQUIRE_SPEEDUP)
SPEEDUP_FLOOR = 1.2

REQUIRE_SPEEDUP = os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1"

ARTIFACT = "BENCH_trace.json"

WORKERS = max(2, min(4, os.cpu_count() or 1))


def _quick_grid():
    axis = [(f"{l / UH:g}uH", {"l_uh": l / UH})
            for l in default_l_values(quick=True)]
    return (Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                        "dt": 1 * NS, "seed": 0, "stepping": "fixed"},
                  name="fig7a-quick-trace-fixed")
            .grid(ctrl=controller_axis(), pt=axis))


def _write_artifact(payload):
    existing = {}
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as fh:
            existing = json.load(fh)
    existing.update(payload)
    with open(ARTIFACT, "w") as fh:
        json.dump(existing, fh, indent=1, sort_keys=True)


@pytest.mark.benchmark(group="trace")
def test_sharded_traced_sweep_wall_clock(benchmark):
    """trace=True sweeps shard bit-identically; record (and, in the CI
    bench job, gate) the wall-clock win."""
    specs = _quick_grid().specs()
    inline_session = Session(cache="off")
    sharded_session = Session(workers=WORKERS, cache="off")

    def run_both():
        t0 = time.perf_counter()
        inline = inline_session.sweep(specs, trace=True, track_energy=False)
        t_inline = time.perf_counter() - t0
        t0 = time.perf_counter()
        sharded = sharded_session.sweep(specs, trace=True,
                                        track_energy=False)
        t_sharded = time.perf_counter() - t0
        return inline, t_inline, sharded, t_sharded

    inline, t_inline, sharded, t_sharded = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    speedup = t_inline / t_sharded
    print()
    print(f"traced fig7a quick grid: inline {t_inline:.2f} s, "
          f"sharded ({WORKERS} workers) {t_sharded:.2f} s "
          f"-> {speedup:.2f}x ({os.cpu_count()} cores available)")

    # sharding must never change a sample: every waveform bit-identical
    for a, b in zip(inline, sharded):
        assert b.result.trace is not None
        assert b.result.trace == a.result.trace, a.spec.name
        assert b.result == a.result, a.spec.name

    gate = REQUIRE_SPEEDUP and (os.cpu_count() or 1) >= 2
    _write_artifact({"sharded_wall_clock": {
        "t_inline_s": t_inline, "t_sharded_s": t_sharded,
        "speedup": speedup, "floor": SPEEDUP_FLOOR,
        "workers": WORKERS, "cores": os.cpu_count(), "gated": gate,
    }})
    if gate:
        assert speedup >= SPEEDUP_FLOOR, (
            f"sharded traced sweep only reached {speedup:.2f}x "
            f"(need >= {SPEEDUP_FLOOR}x under REPRO_REQUIRE_SPEEDUP=1)")
