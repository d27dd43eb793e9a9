"""Integration: TraceSets attached to results across backends & modes."""

import numpy as np
import pytest

from repro import BuckSystem, Session
from repro.metrics import ripple
from repro.scenarios import ScenarioSpec
from repro.scenarios.engine import VectorBatch
from repro.sim import NS, US


def _spec(name="t", stepping="fixed", **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("l_uh", 2.25)
    overrides.setdefault("r_load", 6.0)
    overrides.setdefault("sim_time", 2 * US)
    overrides.setdefault("dt", 1 * NS)
    overrides["stepping"] = stepping
    return ScenarioSpec(name, overrides=overrides)


class TestTraceContent:
    def test_scalar_and_vector_fixed_traces_are_identical(self):
        spec = _spec()
        scalar = BuckSystem(spec.to_config(trace=True)).measure()
        vector = VectorBatch([spec], [spec.to_config(trace=True)]).run()[0]
        assert scalar.trace is not None and vector.trace is not None
        assert vector.trace == scalar.trace

    def test_channel_inventory(self):
        [point] = Session().sweep([_spec(n_phases=2)], trace=True)
        ts = point.result.trace
        assert {"v_load", "i_coil0", "i_coil1", "i_total",
                "hl", "uv", "ov", "oc0", "zc1", "gp0", "gn1",
                "token0"} <= set(ts.channels)
        assert "i_coil2" not in ts.channels
        # analog channels share one grid; signals carry their own
        assert ts.grid_of("v_load") == ts.grid_of("i_total") == "t"
        assert ts.grid_of("hl") == "hl"

    def test_trace_meta_carries_the_run_references(self):
        from repro.analog.sensors import BuckReferences
        spec = _spec(refs=BuckReferences(v_ref=3.1))
        [point] = Session().sweep([spec], trace=True)
        assert point.result.trace.meta["v_ref"] == 3.1
        assert point.result.trace.meta["controller"] == "async"

    def test_measure_trace_reads_v_ref_from_meta(self):
        """Overshoots come out against the run's recorded reference,
        not a hard-coded 3.3 V (10 us synthetic Fig. 6-shaped trace)."""
        from repro.experiments.fig6 import measure_trace
        from repro.trace import TraceSet
        n = 101
        times = [i * 0.1 * US for i in range(n)]
        ts = TraceSet().add_grid("t", times)
        ts.add_channel("v_load", [3.2] * n, grid="t")   # 0.1 V above 3.1
        ts.add_channel("i_coil0", [0.1] * n, grid="t")
        for name in ("ov", "hl"):
            ts.add_grid(name, [0.0]).add_channel(name, [False], grid=name)
        ts.meta["v_ref"] = 3.1
        run = measure_trace(ts, "x")
        assert run.startup_overshoot_v == pytest.approx(0.1)
        assert run.recovery_overshoot_v == pytest.approx(0.1)
        # explicit override still wins
        assert measure_trace(ts, "x", v_ref=3.3).startup_overshoot_v == 0.0

    def test_i_total_matches_phase_sum(self):
        [point] = Session().sweep([_spec()], trace=True)
        ts = point.result.trace
        total = sum(ts.values(f"i_coil{k}") for k in range(4))
        assert np.array_equal(ts.values("i_total"), total)

    def test_system_trace_set_matches_probe_reads(self):
        system = BuckSystem(_spec().to_config(trace=True))
        system.measure()
        ts = system.trace_set()
        window = (0.5 * US, 2 * US)
        assert ripple(ts.probe("v_load"), *window) == \
            pytest.approx(ripple(system.solver.v_probe, *window), abs=0.0)
        assert np.array_equal(ts.times("v_load"),
                              np.asarray(system.solver.v_probe.times))


class TestAdaptiveCompaction:
    """ROADMAP follow-up (f): adaptive idle-lane rows compact away."""

    def _batch(self):
        # two lanes with very different step budgets -> real idling
        specs = [_spec("fast", stepping="adaptive", l_uh=10.0),
                 _spec("slow", stepping="adaptive", l_uh=1.0)]
        configs = [s.to_config(trace=True) for s in specs]
        batch = VectorBatch(specs, configs)
        results = batch.run()
        return batch, specs, configs, results

    def test_compaction_removes_idle_rows_only(self):
        batch, _, _, _ = self._batch()
        raw = batch.solver.trace_set(0, compact=False)
        compact = batch.solver.trace_set(0, compact=True)
        assert compact.n_samples("v_load") < raw.n_samples("v_load")
        assert compact == raw.compacted()
        # the compacted grid is strictly increasing (no idle duplicates)
        assert (np.diff(compact.times("v_load")) > 0).all()

    def test_vector_adaptive_compacted_equals_scalar_adaptive_trace(self):
        _, specs, configs, results = self._batch()
        for spec, result in zip(specs, results):
            scalar = BuckSystem(spec.to_config(trace=True)).measure()
            assert result.trace == scalar.trace, spec.name

    def test_adaptive_traces_independent_of_batch_composition(self):
        _, specs, configs, results = self._batch()
        for spec, batched in zip(specs, results):
            solo = VectorBatch([spec], [spec.to_config(trace=True)]).run()[0]
            assert solo.trace == batched.trace, spec.name


class TestTraceExport:
    def test_cached_traced_run_exports_vcd_without_resimulating(
            self, tmp_path):
        spec = _spec()
        cache_dir = str(tmp_path / "cache")
        Session(cache="readwrite", cache_dir=cache_dir).sweep(
            [spec], trace=True)
        hot = Session(cache="readwrite", cache_dir=cache_dir)
        [point] = hot.sweep([spec], trace=True)
        assert hot.cache_stats()["hits"] == 1   # served from disk
        vcd_path = tmp_path / "run.vcd"
        point.result.trace.to_vcd(str(vcd_path))
        text = vcd_path.read_text()
        assert "$var real 64" in text and "$var wire 1" in text
        assert "v_load" in text and "gp0" in text

    def test_trace_npz_round_trip_from_run(self, tmp_path):
        from repro.trace import TraceSet
        [point] = Session().sweep([_spec()], trace=True)
        path = tmp_path / "trace.npz"
        point.result.trace.to_npz(path)
        assert TraceSet.from_npz(path) == point.result.trace
