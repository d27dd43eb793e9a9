"""The live recorders behind TraceSets: typed columns, copies out of them,
the derived ``i_total`` channel and the adaptive compaction floor."""

import copy
import sys
from array import array

import numpy as np
import pytest

from repro import BuckSystem, Session
from repro.experiments.fig7 import controller_axis, default_l_values
from repro.scenarios import ScenarioSpec, Sweep
from repro.scenarios.engine import VectorBatch
from repro.sim import NS, UH, US
from repro.trace.recorder import phase_sum

#: raw-over-compacted trace byte ratio the adaptive quick grid must reach
COMPACTION_FLOOR = 2.0


def _spec(stepping="fixed", **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("sim_time", 2 * US)
    overrides.setdefault("dt", 1 * NS)
    overrides["stepping"] = stepping
    return ScenarioSpec("rec", overrides=overrides)


def _assert_extends(first, second):
    """Every channel of ``second`` starts with ``first``'s samples, and
    the analog grid grew."""
    assert first.channels == second.channels
    for name in first.channels:
        n = first.n_samples(name)
        assert np.array_equal(second.times(name)[:n], first.times(name))
        assert np.array_equal(second.values(name)[:n], first.values(name))
    assert second.n_samples("v_load") > first.n_samples("v_load")


class TestTraceSetMidRun:
    """A TraceSet copies out of the live columns: taking one mid-run pins
    nothing, and later records neither raise nor reach it."""

    def test_buck_system(self):
        system = BuckSystem(_spec().to_config(trace=True))
        system.sim.run_until(0.5 * US)
        first = system.trace_set()
        kept = copy.deepcopy(first)
        system.sim.run_until(2 * US)
        second = system.trace_set()
        assert first == kept
        _assert_extends(first, second)

    @pytest.mark.parametrize("stepping", ["fixed", "adaptive"])
    def test_vector_lane(self, stepping):
        spec = _spec(stepping)
        batch = VectorBatch([spec], [spec.to_config(trace=True)])
        batch.run(duration=0.5 * US)
        lane = batch.lanes[0]
        first = lane.trace_set()
        kept = copy.deepcopy(first)
        # 1.5 us more at 1 ns outgrows the recorder's first block in
        # fixed mode, so the rows also survive a block doubling
        batch.run(duration=1.5 * US)
        second = lane.trace_set()
        assert first == kept
        _assert_extends(first, second)


def test_scalar_recording_holds_eight_bytes_per_value():
    """K traced ticks keep one shared time column and one value column
    per probe, 8 B per recorded value plus ``array``'s over-allocation
    (at most 1/16 of the length plus 8 slots in CPython)."""
    config = _spec(sim_time=3 * US).to_config(trace=True)
    system = BuckSystem(config)
    system.sim.run_until(config.sim_time)
    solver = system.solver
    k_ticks = solver.tick_count
    assert k_ticks >= 2999
    probes = [solver.v_probe] + solver.i_probes
    assert all(probe.times is solver.times for probe in probes)
    columns = [solver.times] + [probe.values for probe in probes]
    assert len({col.buffer_info()[0] for col in columns}) == len(columns)
    empty = sys.getsizeof(array("d"))
    for col in columns:
        _, n = col.buffer_info()
        assert n == k_ticks + 1 and col.itemsize == 8
        assert sys.getsizeof(col) - empty <= 8 * (n + n // 16 + 8)
    # a digital change costs 9 B: a float64 instant and an int8 value
    signal = system.sensors.hl.output
    assert signal.times.itemsize + signal.values.itemsize == 9
    assert len(signal.times) == len(signal.values) > 1


class TestDerivedTotalCurrent:
    """``i_total`` is no recorded channel: the coil columns added in
    phase order onto 0.0, bit for bit the running ``total += i``."""

    @staticmethod
    def _running_sum(columns):
        out = []
        for row in zip(*(col.tolist() for col in columns)):
            total = 0.0
            for i in row:
                total += i
            out.append(total)
        return np.array(out)

    @pytest.mark.parametrize("n_phases", [1, 4, 8, 9])
    def test_phase_sum_is_the_running_sum(self, n_phases):
        rng = np.random.default_rng(n_phases)
        columns = [rng.standard_normal(64) * 10.0 ** rng.integers(-9, 3, 64)
                   for _ in range(n_phases)]
        for col in columns:
            col[:4] = [0.0, -0.0, -0.0, 0.0]
        total = phase_sum(columns)
        assert total.tobytes() == self._running_sum(columns).tobytes()
        # the all-negative-zero row sums to +0.0, as 0.0 + -0.0 does
        assert not np.signbit(total[2])

    @pytest.mark.parametrize("n_phases", [4, 8])
    def test_traced_runs_carry_the_running_sum_on_both_backends(
            self, n_phases):
        spec = _spec(n_phases=n_phases, sim_time=1 * US)
        scalar = Session(backend="scalar", cache="off").run(spec, trace=True)
        vector = Session(backend="vector", cache="off").run(spec, trace=True)
        for result in (scalar, vector):
            ts = result.trace
            coils = [ts.values(f"i_coil{k}") for k in range(n_phases)]
            assert ts.values("i_total").tobytes() == \
                self._running_sum(coils).tobytes()
        assert vector.trace == scalar.trace


def test_adaptive_compaction_at_least_halves_trace_bytes():
    """Idle-lane row compaction shrinks the traced adaptive Fig. 7a
    quick grid at least :data:`COMPACTION_FLOOR` x.  Byte counts are a
    deterministic function of the scenarios."""
    axis = [(f"{l / UH:g}uH", {"l_uh": l / UH})
            for l in default_l_values(quick=True)]
    specs = (Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                         "dt": 1 * NS, "seed": 0, "stepping": "adaptive"},
                   name="fig7a-quick-trace-adaptive")
             .grid(ctrl=controller_axis(), pt=axis)).specs()
    assert len(specs) == 20
    batch = VectorBatch(specs, [spec.to_config(trace=True) for spec in specs],
                        track_energy=False)
    batch.run()
    solver = batch.solver
    raw = sum(solver.trace_set(i, compact=False).nbytes
              for i in range(len(specs)))
    compacted = sum(solver.trace_set(i).nbytes for i in range(len(specs)))
    assert raw / compacted >= COMPACTION_FLOOR, (
        f"adaptive idle-lane compaction only saved {raw / compacted:.2f}x "
        f"(raw {raw} B, compacted {compacted} B; need >= "
        f"{COMPACTION_FLOOR}x)")
