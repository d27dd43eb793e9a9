"""Process-parallel sharding: planning, serialization, determinism, and
the validation paths added alongside it (override conflicts, settle
bounds)."""

import dataclasses
from dataclasses import fields
from types import MappingProxyType

import pytest

from repro.analog.coil import Coil, make_coil
from repro.analog.load import LoadProfile
from repro.analog.sensors import BuckReferences
from repro.control.async_controller import AsyncTimings
from repro.control.params import BuckControlParams
from repro import Session
from repro.scenarios import ScenarioSpec, Sweep, plan_batches, uniform
from repro.scenarios.parallel import (PER_LANE_FIELDS, decode_config,
                                      decode_spec, decode_value,
                                      encode_config, encode_spec,
                                      encode_value, lockstep_key)
from repro.sim import NS, UH, US
from repro.system import SystemConfig


def run_sweep(specs, *, backend="vector", workers=None,
              max_lanes_per_shard=None, **kw):
    """The Session front door with per-call sharding knobs (cache off)."""
    session = Session(backend=backend, workers=workers,
                      max_lanes_per_shard=max_lanes_per_shard, cache="off")
    return session.sweep(specs, **kw)


def _spec(name="s", **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("l_uh", 4.7)
    overrides.setdefault("r_load", 6.0)
    overrides.setdefault("sim_time", 1 * US)
    overrides.setdefault("dt", 1 * NS)
    return ScenarioSpec(name, overrides=overrides)


def _mixed_sweep() -> Sweep:
    """A grid plus seeded random draws — the two sweep flavours."""
    return (Sweep(base={"n_phases": 4, "sim_time": 1 * US, "dt": 1 * NS},
                  seed=11, name="mix")
            .grid(ctrl=[("ASYNC", {"controller": "async"}),
                        ("333MHz", {"controller": "sync",
                                    "fsm_frequency": 333e6})],
                  l_uh=[1.0, 4.7])
            .random(4, r_load=uniform(3.0, 15.0),
                    controller=lambda rng: "async"))


class TestPlanner:
    def test_groups_by_lockstep_key_in_spec_order(self):
        specs = [_spec("a", dt=1 * NS), _spec("b", dt=2 * NS),
                 _spec("c", dt=1 * NS), _spec("d", n_phases=2)]
        configs = [s.to_config() for s in specs]
        plans = plan_batches(configs)
        assert [p.indices for p in plans] == [(0, 2), (1,), (3,)]

    def test_oversized_batch_chunked_into_slices(self):
        configs = [_spec(f"s{i}").to_config() for i in range(8)]
        plans = plan_batches(configs, max_lanes_per_shard=3)
        assert [p.indices for p in plans] == [(0, 1, 2), (3, 4, 5), (6, 7)]

    def test_chunk_cap_validated(self):
        with pytest.raises(ValueError, match="max_lanes_per_shard"):
            plan_batches([_spec().to_config()], max_lanes_per_shard=0)

    def test_per_lane_fields_are_config_fields(self):
        names = {f.name for f in fields(SystemConfig)}
        assert set(PER_LANE_FIELDS) <= names

    @pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig)])
    def test_lockstep_key_keys_every_field_but_the_per_lane_ones(
            self, name, config_variant):
        base = _spec().to_config()
        same = lockstep_key(config_variant(base, name)) == lockstep_key(base)
        assert same == (name in PER_LANE_FIELDS), name


class TestSerialization:
    def test_config_round_trip_rebuilds_models(self):
        cfg = ScenarioSpec("rt", overrides={
            "controller": "async",
            "coil": make_coil(4.7 * UH),
            "load": LoadProfile([(0.0, 6.0), (1 * US, 2.0)]),
            "refs": BuckReferences(v_ref=3.2),
            "params": BuckControlParams(pmin=5 * NS),
            "timings": AsyncTimings(token_hop=0.3 * NS),
            "sim_time": 1 * US,
        }).to_config()
        clone = decode_config(encode_config(cfg))
        assert clone.coil == cfg.coil
        assert clone.load.steps() == cfg.load.steps()
        assert clone.refs == cfg.refs
        assert clone.params == cfg.params
        assert clone.timings == cfg.timings
        assert clone.sim_time == cfg.sim_time

    def test_spec_round_trip(self):
        spec = ScenarioSpec("sp", overrides={"controller": "async",
                                             "coil": make_coil(2.25 * UH),
                                             "x_tag": "extra"},
                            seed=42)
        clone = decode_spec(encode_spec(spec))
        assert clone.name == spec.name
        assert clone.seed == spec.seed
        assert clone.overrides["coil"] == spec.overrides["coil"]
        assert clone.overrides["x_tag"] == "extra"

    def test_models_encode_as_their_asdict_form(self):
        """The exact-type path flattens a model to the dict ``asdict``
        builds, key order included; a subclass takes the ``isinstance``
        path and encodes the same way."""
        @dataclasses.dataclass(frozen=True)
        class TaggedCoil(Coil):
            note: str = "sub"

        models = {"coil": make_coil(4.7 * UH),
                  "refs": BuckReferences(v_ref=3.2),
                  "params": BuckControlParams(pmin=5 * NS),
                  "timings": AsyncTimings(token_hop=0.3 * NS)}
        sub = TaggedCoil(name="L", inductance=UH, dcr=0.1)
        for tag, model in [*models.items(), ("coil", sub)]:
            encoded = encode_value(model)
            want = {"__model__": tag, **dataclasses.asdict(model)}
            assert list(encoded.items()) == list(want.items()), tag
        load = LoadProfile([(0.0, 6.0), (1 * US, 2.0)])
        assert encode_value(load) == {"__model__": "load",
                                      "steps": load.steps()}

    def test_any_mapping_decodes(self):
        """A tagged mapping that is not a dict still rebuilds its model,
        and plain values and untagged dicts pass through as they are."""
        encoded = encode_value(make_coil(2.25 * UH))
        assert decode_value(MappingProxyType(encoded)) == \
            make_coil(2.25 * UH)
        untagged = {"a": 1}
        assert decode_value(untagged) is untagged
        assert [decode_value(v) for v in (1.5, "x", None, [1])] == \
            [1.5, "x", None, [1]]


class TestParallelSweep:
    def test_workers4_bit_identical_on_32_scenario_ablation_sweep(self):
        # the ISSUE-2 acceptance sweep: the bench's 32-scenario Fig. 7-style
        # ablation grid, sharded four ways vs inline
        sweep = (Sweep(base={"controller": "async", "n_phases": 4,
                             "sim_time": 10 * US, "dt": 0.5 * NS, "seed": 0},
                       name="ablation32")
                 .grid(l_uh=[4.7, 6.8, 8.2, 10.0],
                       r_load=[9.0, 15.0],
                       pmin=[2 * NS, 20 * NS],
                       phase_dwell=[150 * NS, 300 * NS]))
        inline = run_sweep(sweep, track_energy=False)
        sharded = run_sweep(sweep, track_energy=False, workers=4)
        assert len(sharded) == 32
        for a, b in zip(inline, sharded):
            assert b.spec.name == a.spec.name
            assert b.result == a.result    # dataclass eq: exact floats

    def test_workers4_bit_identical_on_mixed_sweep(self):
        sweep = _mixed_sweep()
        inline = run_sweep(sweep)
        sharded = run_sweep(sweep, workers=4)
        assert len(sharded) == 8
        for a, b in zip(inline, sharded):
            assert b.spec.name == a.spec.name
            assert b.result == a.result    # dataclass eq: exact floats

    def test_spec_order_preserved_across_shards(self):
        # heterogeneous dt forces multiple lock-step groups -> shards
        specs = [_spec("a", dt=1 * NS), _spec("b", dt=2 * NS),
                 _spec("c", dt=1 * NS), _spec("d", dt=2 * NS)]
        points = run_sweep(specs, workers=2)
        assert [p.spec.name for p in points] == ["a", "b", "c", "d"]

    def test_lane_chunking_of_one_oversized_batch_is_lossless(self):
        specs = [_spec(f"s{i}", r_load=3.0 + i) for i in range(5)]
        whole = run_sweep(specs)
        chunked = run_sweep(specs, workers=2, max_lanes_per_shard=2)
        for a, b in zip(whole, chunked):
            assert b.result == a.result

    def test_scalar_backend_shards_too(self):
        specs = [_spec(f"s{i}", r_load=3.0 + i) for i in range(3)]
        inline = run_sweep(specs, backend="scalar")
        sharded = run_sweep(specs, backend="scalar", workers=3)
        for a, b in zip(inline, sharded):
            assert b.result == a.result

    def test_parallel_points_carry_no_handles(self):
        points = run_sweep([_spec()], workers=2)
        assert points[0].handle is None

    def test_keep_with_workers_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            run_sweep([_spec()], keep=True, workers=2)

    def test_trace_with_workers_shards_bit_identically(self, recwarn):
        """Traced sweeps no longer fall back inline: the TraceSet
        crosses the pool and every waveform sample matches workers=1."""
        inline = run_sweep([_spec()], trace=True)
        sharded = run_sweep([_spec()], trace=True, workers=2)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        assert sharded[0].result.trace is not None
        assert sharded[0].result.trace == inline[0].result.trace
        assert sharded[0].result == inline[0].result

    @pytest.mark.parametrize("backend", ["vector", "scalar"])
    def test_empty_sweep_starts_no_pool(self, backend):
        assert run_sweep([], backend=backend, workers=2) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep([_spec()], workers=-1)

    def test_workers_one_runs_inline_with_handles_allowed(self):
        points = run_sweep([_spec()], trace=True, keep=True, workers=1)
        assert points[0].handle is not None


class TestOverrideConflicts:
    def test_l_uh_vs_coil_conflict_raises(self):
        spec = ScenarioSpec("c1", overrides={"l_uh": 4.7,
                                             "coil": make_coil(4.7 * UH)})
        with pytest.raises(ValueError, match="'l_uh' and 'coil'"):
            spec.to_config()

    def test_r_load_vs_load_conflict_raises(self):
        spec = ScenarioSpec("c2", overrides={
            "r_load": 6.0, "load": LoadProfile.constant(6.0)})
        with pytest.raises(ValueError, match="'r_load' and 'load'"):
            spec.to_config()

    def test_param_keys_vs_explicit_params_override_raises(self):
        spec = ScenarioSpec("c3", overrides={
            "pmin": 2 * NS, "phase_dwell": 150 * NS,
            "params": BuckControlParams()})
        with pytest.raises(ValueError) as err:
            spec.to_config()
        assert "pmin" in str(err.value)
        assert "phase_dwell" in str(err.value)

    def test_param_keys_vs_params_default_raises(self):
        # an explicit params *default* used to silently drop the spec's
        # timing overrides
        spec = ScenarioSpec("c4", overrides={"nmin": 3 * NS})
        with pytest.raises(ValueError, match="nmin"):
            spec.to_config(params=BuckControlParams())

    def test_pseudo_key_over_default_field_still_wins(self):
        # a pseudo-key override on top of a *default* coil/load is the
        # documented layering, not a conflict
        cfg = ScenarioSpec("ok", overrides={"l_uh": 2.25}).to_config(
            coil=make_coil(4.7 * UH))
        assert cfg.coil.inductance == pytest.approx(2.25 * UH)


class TestSettleValidation:
    def test_vector_settle_at_duration_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            run_sweep([_spec()], settle=1 * US)

    def test_vector_settle_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            run_sweep([_spec()], settle=2 * US)

    def test_scalar_settle_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            run_sweep([_spec()], backend="scalar", settle=2 * US)

    def test_negative_settle_rejected_in_both_backends(self):
        with pytest.raises(ValueError, match="negative"):
            run_sweep([_spec()], settle=-1 * NS)
        with pytest.raises(ValueError, match="negative"):
            run_sweep([_spec()], backend="scalar", settle=-1 * NS)
