"""The Session front door: caching semantics and sharding.

Includes the ISSUE-3 acceptance test: a repeated ``Session.sweep`` of the
fig7a quick grid is served from cache (hit counter equals spec count) and
returns results bit-identical to the cold run, at both ``workers=1`` and
``workers=2``.
"""

import pytest

from repro import BuckSystem, Session, SystemConfig
from repro.scenarios import ScenarioSpec, Sweep
from repro.session import ResultCache, cache_key
from repro.session import cache as cache_mod
from repro.sim import NS, US
from repro.system import RunResult


def _hits_misses(session):
    stats = session.cache_stats()
    return stats["hits"], stats["misses"]


def _spec(name="s", **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("l_uh", 4.7)
    overrides.setdefault("r_load", 6.0)
    overrides.setdefault("sim_time", 1 * US)
    overrides.setdefault("dt", 1 * NS)
    return ScenarioSpec(name, overrides=overrides)


def _grid(n=4):
    return [_spec(f"g{i}", r_load=3.0 + i) for i in range(n)]


def _session(tmp_path, **kw):
    kw.setdefault("cache", "readwrite")
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return Session(**kw)


class TestSessionBasics:
    def test_run_accepts_spec_config_and_mapping(self):
        session = Session()
        spec = _spec()
        by_spec = session.run(spec)
        by_config = session.run(spec.to_config())
        by_mapping = session.run(dict(spec.overrides))
        assert by_spec == by_config == by_mapping
        assert isinstance(by_spec, RunResult)

    def test_matches_direct_buck_system_measure(self):
        spec = _spec()
        assert Session(backend="scalar").run(spec) == \
            BuckSystem(spec.to_config()).measure()

    def test_defaults_apply_below_overrides(self):
        session = Session(defaults={"n_phases": 2, "sim_time": 2 * US})
        spec = ScenarioSpec("d", overrides={"controller": "async",
                                            "sim_time": 1 * US})
        [point] = session.sweep([spec])
        assert point.config.n_phases == 2
        assert point.config.sim_time == 1 * US

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Session(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            Session(workers=-1)

    def test_build_returns_live_system(self):
        system = Session().build(_spec())
        assert isinstance(system, BuckSystem)
        assert system.config.trace          # waveform-level default

    def test_run_system_executes_prebuilt(self):
        session = Session()
        result = session.run_system(session.build(_spec(), trace=False))
        assert result == BuckSystem(_spec().to_config()).measure()

    def test_map_inline_and_sharded(self):
        assert Session().map(abs, [-1, 2, -3]) == [1, 2, 3]
        assert Session(workers=2).map(abs, [-1, 2, -3]) == [1, 2, 3]


class TestCachingSemantics:
    def test_cold_then_hot_bit_identical(self, tmp_path):
        session = _session(tmp_path)
        specs = _grid()
        cold = session.sweep(specs)
        assert _hits_misses(session) == (0, 4)
        hot = session.sweep(specs)
        assert _hits_misses(session) == (4, 4)
        for a, b in zip(cold, hot):
            assert b.result == a.result      # dataclass eq: exact floats
            assert b.handle is None

    def test_cache_shared_across_sessions_and_worker_counts(self, tmp_path):
        specs = _grid()
        cold = _session(tmp_path, workers=1).sweep(specs)
        for workers in (1, 2):
            hot_session = _session(tmp_path, workers=workers)
            hot = hot_session.sweep(specs)
            assert hot_session.cache_stats()["hits"] == len(specs)
            assert hot_session.cache_stats()["misses"] == 0
            assert [p.result for p in hot] == [p.result for p in cold]

    def test_parallel_cold_run_writes_back_per_lane(self, tmp_path):
        session = _session(tmp_path, workers=2)
        session.sweep(_grid())
        assert len(session.cache) == 4

    def test_partial_hits_only_simulate_the_misses(self, tmp_path):
        specs = _grid()
        _session(tmp_path).sweep(specs[:2])
        session = _session(tmp_path)
        points = session.sweep(specs)
        assert _hits_misses(session) == (2, 2)
        assert [p.spec.name for p in points] == [s.name for s in specs]

    def test_hits_actually_come_from_disk(self, tmp_path):
        """Poison the stored entry; a readwrite session must serve it."""
        session = _session(tmp_path)
        spec = _spec()
        genuine = session.run(spec)
        key = cache_key(spec.to_config())
        poisoned = RunResult.from_dict(
            dict(genuine.to_dict(), v_final=-123.0))
        session.cache.store(key, poisoned)
        assert _session(tmp_path).run(spec).v_final == -123.0
        # cache="off" ignores the poisoned entry and recomputes
        off = Session(cache="off")
        assert off.run(spec) == genuine
        assert _hits_misses(off) == (0, 0)

    def test_readonly_serves_hits_but_never_writes(self, tmp_path):
        specs = _grid(2)
        _session(tmp_path).sweep([specs[0]])
        session = _session(tmp_path, cache="readonly")
        session.sweep(specs)
        assert _hits_misses(session) == (1, 1)
        assert len(session.cache) == 1      # the miss was not written back
        rerun = _session(tmp_path, cache="readonly")
        rerun.sweep(specs)
        assert _hits_misses(rerun) == (1, 1)

    def test_code_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        specs = _grid(2)
        _session(tmp_path).sweep(specs)
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "f" * 16)
        session = _session(tmp_path)
        session.sweep(specs)
        assert _hits_misses(session) == (0, 2)

    def test_keep_bypasses_the_cache(self, tmp_path):
        session = _session(tmp_path)
        spec = _spec()
        session.run(spec)                    # populate
        points = session.sweep([spec], trace=True, keep=True)
        assert points[0].handle is not None
        assert session.cache_stats()["hits"] == 0   # keep never consulted it

    def test_settle_and_track_energy_cache_separately(self, tmp_path):
        session = _session(tmp_path)
        spec = _spec()
        session.run(spec)
        session.sweep([spec], track_energy=False)
        session.sweep([spec], settle=0.0)
        assert session.cache_stats()["misses"] == 3
        assert session.cache_stats()["hits"] == 0

    def test_cache_stats_shape(self, tmp_path):
        session = _session(tmp_path)
        stats = session.cache_stats()
        assert stats["mode"] == "readwrite"
        assert stats["root"].endswith("cache")
        off = Session(cache="off")
        assert off.cache is None
        assert off.cache_stats()["mode"] == "off"

    def test_env_resolves_default_cache_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "readwrite")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        session = Session()
        assert session.cache is not None
        assert session.cache.mode == "readwrite"
        assert str(session.cache.root) == str(tmp_path / "envcache")
        monkeypatch.delenv("REPRO_CACHE")
        assert Session().cache is None

    def test_cache_dir_alone_means_readwrite(self, tmp_path, monkeypatch):
        """A cache_dir with no cache= mode (and no REPRO_CACHE) caches
        there instead of silently running uncached."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        root = tmp_path / "dir_only"
        session = Session(cache_dir=str(root))
        assert session.cache.mode == "readwrite"
        assert str(session.cache.root) == str(root)
        session.run(_spec())
        again = Session(cache_dir=str(root))
        again.run(_spec())
        assert _hits_misses(again) == (1, 0)
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert Session(cache_dir=str(root)).cache is None

    def test_ready_result_cache_accepted(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        session = Session(cache=cache)
        assert session.cache is cache


class TestTracedSweeps:
    """ISSUE-5 acceptance: traced sweeps shard bit-identically (no
    inline-fallback warning) and repeat fully cache-served."""

    def test_sharded_traced_sweep_bit_identical_no_warning(self, recwarn):
        specs = _grid()
        inline = Session().sweep(specs, trace=True)
        sharded = Session(workers=2).sweep(specs, trace=True)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        for a, b in zip(inline, sharded):
            assert b.result.trace is not None
            assert b.result.trace == a.result.trace   # every sample exact
            assert b.result == a.result

    def test_traced_runs_attach_a_trace_set(self):
        [point] = Session().sweep([_spec()], trace=True)
        ts = point.result.trace
        assert {"v_load", "i_total", "hl", "gp0"} <= set(ts.channels)
        assert ts.n_samples("v_load") > 100
        [untraced] = Session().sweep([_spec()])
        assert untraced.result.trace is None

    def test_repeated_traced_sweep_fully_cache_served(self, tmp_path):
        specs = _grid()
        cold_session = _session(tmp_path)
        cold = cold_session.sweep(specs, trace=True)
        assert cold_session.cache_stats()["misses"] == len(specs)
        for workers in (1, 2):
            hot_session = _session(tmp_path, workers=workers)
            hot = hot_session.sweep(specs, trace=True)
            assert hot_session.cache_stats()["hits"] == len(specs)
            assert hot_session.cache_stats()["misses"] == 0
            for a, b in zip(cold, hot):
                assert b.result.trace == a.result.trace
                assert b.result == a.result

    def test_traced_request_misses_on_untraced_entry_and_upgrades(
            self, tmp_path):
        spec = _spec()
        _session(tmp_path).sweep([spec])              # untraced entry
        session = _session(tmp_path)
        [point] = session.sweep([spec], trace=True)   # must re-simulate
        assert _hits_misses(session) == (0, 1)
        assert point.result.trace is not None
        rerun = _session(tmp_path)
        [hot] = rerun.sweep([spec], trace=True)       # upgraded entry hits
        assert _hits_misses(rerun) == (1, 0)
        assert hot.result.trace == point.result.trace

    def test_untraced_hit_on_traced_entry_strips_the_trace(self, tmp_path):
        spec = _spec()
        _session(tmp_path).sweep([spec], trace=True)
        session = _session(tmp_path)
        [point] = session.sweep([spec])
        assert session.cache_stats()["hits"] == 1
        assert point.result.trace is None
        assert point.result == Session().run(spec)    # fresh untraced run

    def test_per_config_trace_override_governs_cache_lookup(self, tmp_path):
        """A spec-level trace override beats the sweep default, and the
        cache lookup follows the *resolved* value — no permanent-miss
        loop, no cold/hot asymmetry."""
        spec = ScenarioSpec("notrace", overrides=dict(_spec().overrides,
                                                      trace=False))
        cold_session = _session(tmp_path)
        [cold] = cold_session.sweep([spec], trace=True)
        assert cold.result.trace is None      # override won at execution
        hot_session = _session(tmp_path)
        [hot] = hot_session.sweep([spec], trace=True)
        assert _hits_misses(hot_session) == (1, 0)
        assert hot.result == cold.result

    def test_traced_config_request_is_cold_hot_symmetric(self, tmp_path):
        """Session.run(SystemConfig(...)) carries trace=True in the
        config; the hot pass must return the same traced result."""
        config = _spec().to_config(trace=True)
        cold = _session(tmp_path).run(config)
        assert cold.trace is not None
        hot_session = _session(tmp_path)
        hot = hot_session.run(config)
        assert hot_session.cache_stats()["hits"] == 1
        assert hot.trace == cold.trace
        assert hot == cold

    def test_scalar_backend_traces_shard_too(self):
        specs = _grid(2)
        inline = Session(backend="scalar").sweep(specs, trace=True)
        sharded = Session(backend="scalar", workers=2).sweep(specs,
                                                             trace=True)
        for a, b in zip(inline, sharded):
            assert b.result.trace == a.result.trace
            assert b.result == a.result


class TestFig7aQuickGridAcceptance:
    """ISSUE-3 acceptance: the fig7a quick grid, cold vs cached."""

    def test_repeated_fig7a_quick_grid_served_from_cache(self, tmp_path):
        from repro.experiments import run_fig7a

        cold_session = _session(tmp_path)
        cold = run_fig7a(quick=True, session=cold_session)
        n_specs = cold_session.cache_stats()["misses"]
        assert n_specs == 20                  # 5 controllers x 4 coils
        assert cold_session.cache_stats()["hits"] == 0

        for workers in (1, 2):
            hot_session = _session(tmp_path, workers=workers)
            hot = run_fig7a(quick=True, session=hot_session)
            # hit counter equals spec count; nothing recomputed
            assert hot_session.cache_stats()["hits"] == n_specs
            assert hot_session.cache_stats()["misses"] == 0
            # bit-identical to the cold run
            assert hot.series == cold.series
