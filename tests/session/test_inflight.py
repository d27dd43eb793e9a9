"""Session thread-shareability: the in-flight registry and per-lane
progress hook.

The registry guarantees that concurrent sweeps on one session compute
each unique uncached key exactly once; the ``on_result`` hook lands
lanes as they finish without changing the returned points.
"""

import threading

import pytest

from repro.scenarios import ScenarioSpec, Sweep
from repro.session import InFlightRegistry, Session, cache_key
from repro.sim import NS, US

BASE = {"n_phases": 2, "r_load": 6.0, "sim_time": 2 * US, "dt": 1 * NS,
        "seed": 0}


def _specs(*l_values):
    return [ScenarioSpec(name=f"l{l}", overrides=dict(BASE, l_uh=l))
            for l in l_values]


class TestRegistry:
    def test_first_claim_owns_later_claims_wait(self):
        reg = InFlightRegistry()
        assert reg.claim("k") is None          # caller owns the compute
        event = reg.claim("k")
        assert event is not None and not event.is_set()
        assert len(reg) == 1
        reg.release("k")
        assert event.is_set() and len(reg) == 0

    def test_release_is_idempotent_and_reclaimable(self):
        reg = InFlightRegistry()
        assert reg.claim("k") is None
        reg.release("k")
        reg.release("k")                       # no-op, no error
        assert reg.claim("k") is None          # fresh claim after release


class TestConcurrentSweeps:
    def test_unique_configs_compute_once_across_threads(self, tmp_path):
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        specs = _specs(1.0, 4.7, 10.0)
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2)

        def sweep(slot):
            try:
                barrier.wait()
                results[slot] = session.sweep(specs, track_energy=False)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(slot,))
                   for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        # 3 unique configs -> exactly 3 simulations, however the two
        # sweeps interleaved; the other 3 lanes were hits (either plain
        # cache hits or in-flight waits, both counted as hits)
        assert session.cache_stats()["misses"] == 3
        assert session.cache_stats()["hits"] == 3
        assert session.cache_stats()["inflight_waits"] <= 3
        a, b = results
        assert [p.result.to_dict() for p in a] == \
            [p.result.to_dict() for p in b]

    def test_waiter_is_served_from_the_owners_write_back(self, tmp_path):
        # deterministic in-flight wait: claim the key ourselves, let a
        # sweep block on it, then publish the entry and release
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        [spec] = _specs(4.7)
        config = spec.to_config(trace=False)
        key = cache_key(config, settle=None, backend="vector",
                        track_energy=False)
        assert session._inflight.claim(key) is None   # we own it now

        points = []
        thread = threading.Thread(
            target=lambda: points.extend(
                session.sweep([spec], track_energy=False)))
        thread.start()
        # compute the entry out of band and publish it before releasing
        result = Session(cache="off").sweep([spec],
                                            track_energy=False)[0].result
        session.cache.store(key, result)
        session._inflight.release(key)
        thread.join(timeout=300)
        assert not thread.is_alive()
        assert points[0].cached and points[0].key == key
        assert points[0].result.to_dict() == result.to_dict()
        assert session.cache_stats()["inflight_waits"] == 1
        assert session.cache_stats()["misses"] == 0

    def test_waiter_recomputes_when_owner_fails(self, tmp_path):
        # the owner releases without storing (mid-sweep failure): the
        # waiter falls back to computing the lane itself
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        [spec] = _specs(4.7)
        key = cache_key(spec.to_config(trace=False), settle=None,
                        backend="vector", track_energy=False)
        assert session._inflight.claim(key) is None

        points = []
        thread = threading.Thread(
            target=lambda: points.extend(
                session.sweep([spec], track_energy=False)))
        thread.start()
        session._inflight.release(key)        # owner "failed": no entry
        thread.join(timeout=300)
        assert not thread.is_alive()
        assert not points[0].cached
        assert session.cache_stats()["misses"] == 1
        # the fallback still writes back for the next caller
        assert session.cache.load(key) is not None

    def test_duplicates_compute_once_after_a_failed_owner(self, tmp_path):
        # two specs expand to one config; another "sweep" holds the key
        # and releases it without publishing: the two waiting lanes go
        # into one claim round and are computed once
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        spec = _specs(4.7)[0]
        twin = ScenarioSpec(name="twin", overrides=spec.overrides)
        key = cache_key(spec.to_config(trace=False), settle=None,
                        backend="vector", track_energy=False)
        assert session._inflight.claim(key) is None
        timer = threading.Timer(0.3, session._inflight.release, (key,))
        timer.start()
        points = session.sweep([spec, twin], track_energy=False)
        timer.join(timeout=60)
        assert not timer.is_alive()
        assert [p.key for p in points] == [key, key]
        assert [p.cached for p in points] == [False, True]
        assert points[0].result == points[1].result
        assert session.cache_stats()["misses"] == 1
        assert session.cache_stats()["hits"] == 1
        assert session.cache_stats()["inflight_waits"] == 0


class TestOnResult:
    def test_inline_hook_fires_in_spec_order(self, tmp_path):
        session = Session(cache="off")
        specs = _specs(1.0, 4.7, 10.0)
        seen = []
        points = session.sweep(specs, track_energy=False,
                               on_result=lambda i, p: seen.append((i, p)))
        assert [i for i, _ in seen] == [0, 1, 2]
        assert [p for _, p in seen] == points
        assert all(not p.cached for p in points)

    @pytest.mark.parametrize("workers", [2])
    def test_sharded_hook_lands_every_lane_bit_identically(self, workers):
        inline = Session(cache="off").sweep(_specs(1.0, 4.7, 10.0),
                                            track_energy=False)
        seen = {}
        sharded = Session(cache="off", workers=workers).sweep(
            _specs(1.0, 4.7, 10.0), track_energy=False,
            on_result=lambda i, p: seen.setdefault(i, p))
        assert sorted(seen) == [0, 1, 2]
        assert [p.result.to_dict() for p in sharded] == \
            [p.result.to_dict() for p in inline]
        for i, point in enumerate(sharded):
            assert seen[i] is point

    def test_cache_hits_land_first_and_entries_are_servable(self, tmp_path):
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        session.sweep(_specs(1.0), track_energy=False)    # warm one lane
        order = []

        def hook(i, point):
            order.append((i, point.cached))
            # a landed lane's entry is already on disk under its key
            assert session.cache.load(point.key) is not None

        session.sweep(_specs(1.0, 4.7), track_energy=False,
                      on_result=hook)
        assert order == [(0, True), (1, False)]

    def test_hook_exception_aborts_without_corrupting_cache(self, tmp_path):
        session = Session(cache="readwrite", cache_dir=str(tmp_path))

        def hook(i, point):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom") as aborted:
            session.sweep(_specs(1.0, 4.7), track_energy=False,
                          on_result=hook)
        # the abort released the claim of the lane that never landed,
        # while the traceback (which holds the sweep's frames) lives on
        assert aborted.traceback
        assert len(session._inflight) == 0
        # the first lane's write-back happened before the callback, so
        # the next sweep serves it from cache
        points = session.sweep(_specs(1.0, 4.7), track_energy=False)
        assert [p.cached for p in points] == [True, False]
