"""Engine-level behaviour: batching, handles, options, validation."""

import heapq
import types

import numpy as np
import pytest

from repro import Session
from repro.scenarios import ScenarioSpec, Sweep, VectorBatch
from repro.scenarios.vector_stage import VectorizedPowerStage
from repro.sim import NS, US


def run_sweep(specs, *, backend="vector", defaults=None, **kw):
    """The Session front door with per-call engine knobs (cache off)."""
    return Session(backend=backend, defaults=defaults,
                   cache="off").sweep(specs, **kw)


def _spec(name="s", **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("l_uh", 4.7)
    overrides.setdefault("r_load", 6.0)
    overrides.setdefault("sim_time", 1 * US)
    overrides.setdefault("dt", 1 * NS)
    return ScenarioSpec(name, overrides=overrides)


class TestBatching:
    def test_incompatible_lanes_split_into_batches_in_order(self):
        specs = [_spec("a", dt=1 * NS), _spec("b", dt=2 * NS),
                 _spec("c", dt=1 * NS), _spec("d", n_phases=2)]
        points = run_sweep(specs)
        assert [p.spec.name for p in points] == ["a", "b", "c", "d"]
        # same scenario, same numbers regardless of grouping
        solo = run_sweep([specs[0]])
        assert points[0].result.v_final == solo[0].result.v_final

    def test_vector_batch_rejects_mixed_lock_step_keys(self):
        with pytest.raises(ValueError, match="n_phases"):
            VectorBatch([_spec("a"), _spec("b", n_phases=2)],
                        [_spec("a").to_config(),
                         _spec("b", n_phases=2).to_config()])
        with pytest.raises(ValueError, match="dt"):
            VectorBatch([_spec("a"), _spec("b", dt=2 * NS)],
                        [_spec("a").to_config(),
                         _spec("b", dt=2 * NS).to_config()])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            VectorBatch([], [])
        with pytest.raises(ValueError):
            VectorizedPowerStage([])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_sweep([_spec()], backend="gpu")

    def test_lane_heads_heap_pops_about_once_per_event(self, monkeypatch):
        """The fixed-step driver keeps one live heads-heap entry per lane,
        so its pops track the events it delivers instead of re-popping
        piled-up duplicates (about 7 pops per event on the Fig. 7a grid
        before the dedupe)."""
        from repro.scenarios import vector_solver
        pops = [0]

        def counting_pop(heap):
            pops[0] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(vector_solver, "heapq", types.SimpleNamespace(
            heapify=heapq.heapify, heappush=heapq.heappush,
            heappop=counting_pop))
        specs = [_spec(f"{ctrl}-{l_uh}", l_uh=l_uh, sim_time=2 * US, **ctrl)
                 for ctrl in ({"controller": "async"},
                              {"controller": "sync", "fsm_frequency": 1e9})
                 for l_uh in (1.0, 4.7)]
        batch = VectorBatch(specs, [s.to_config() for s in specs])
        batch.run()
        delivered = sum(sim.events_delivered for sim in batch.sims)
        assert delivered > 0
        assert pops[0] / delivered <= 1.5, (pops[0], delivered)


class TestHandles:
    def test_keep_exposes_lane_sensors_and_waveforms(self):
        points = run_sweep([_spec()], trace=True, keep=True)
        lane = points[0].handle
        # sensor surface with signal histories
        assert lane.sensors.uv.output.edges("rise")
        assert lane.sensors.ov_mode(0) in (False, True)
        # traced waveforms: one row per micro-step plus the initial sample
        times = lane.waveform_times()
        v = lane.v_waveform()
        assert len(times) == len(v) > 900
        assert v[0] == 0.0            # cold startup
        assert lane.i_waveform(0).shape == v.shape

    def test_keep_scalar_exposes_system(self):
        points = run_sweep([_spec()], backend="scalar", trace=True, keep=True)
        system = points[0].handle
        assert system.sensors.uv.output.edges("rise")

    def test_no_keep_leaves_handle_empty(self):
        assert run_sweep([_spec()])[0].handle is None


class TestOptions:
    def test_track_energy_off_keeps_dynamics(self):
        on = run_sweep([_spec()])[0].result
        off = run_sweep([_spec()], track_energy=False)[0].result
        assert off.peak_coil_current == on.peak_coil_current
        assert off.v_final == on.v_final
        assert off.coil_loss_w == 0.0
        assert off.efficiency == 0.0
        assert on.coil_loss_w > 0.0

    def test_settle_zero_includes_startup_in_stats(self):
        full = run_sweep([_spec()], settle=0.0)[0].result
        default = run_sweep([_spec()])[0].result
        # ripple over the whole run includes the startup ramp from 0 V
        assert full.ripple > default.ripple

    def test_sweep_object_accepted_directly(self):
        sweep = Sweep(base={"controller": "async", "sim_time": 1 * US},
                      name="obj").grid(l_uh=[1.0, 4.7])
        points = run_sweep(sweep)
        assert len(points) == 2

    def test_defaults_apply_below_spec_overrides(self):
        spec = ScenarioSpec("d", overrides={"controller": "async"})
        point = run_sweep([spec], defaults={"sim_time": 1 * US,
                                            "n_phases": 2})[0]
        assert point.config.sim_time == 1 * US
        assert point.config.n_phases == 2


class TestLaneViews:
    def test_short_circuit_guard_enforced(self):
        from repro.analog.buck import ShortCircuitError
        stage = VectorizedPowerStage([_spec().to_config()])
        lane = stage.lanes[0]
        lane.phases[0].set_pmos(True)
        with pytest.raises(ShortCircuitError):
            lane.phases[0].set_nmos(True)
        assert stage.switch_count[0, 0] == 1

    def test_lane_stage_reports(self):
        stage = VectorizedPowerStage([_spec(v_out0=3.3).to_config()])
        lane = stage.lanes[0]
        assert lane.v_out == pytest.approx(3.3)
        assert lane.total_current() == 0.0
        assert lane.efficiency() == 0.0

    def test_load_lookup_matches_scalar_profile(self):
        from repro.analog.load import LoadProfile
        load = LoadProfile([(0.0, 6.0), (1 * US, 2.0), (2 * US, 9.0)])
        cfg = ScenarioSpec("l", overrides={"load": load,
                                           "sim_time": 3 * US}).to_config()
        stage = VectorizedPowerStage([cfg, cfg])
        for t in (0.0, 0.5 * US, 1 * US, 1.5 * US, 2.5 * US):
            expected = load.resistance(t)
            assert np.all(stage.resistance(t) == expected), t
