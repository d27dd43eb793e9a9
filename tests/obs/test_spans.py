"""The span tracer: nesting, cross-process adoption, the kill switch,
Chrome export, and the PhaseClock partition property."""

import json
import os
import time

import pytest

from repro import obs


@pytest.fixture()
def obs_on():
    obs.set_enabled(True)
    yield
    obs.set_enabled(None)


@pytest.fixture()
def obs_off():
    obs.set_enabled(False)
    yield
    obs.set_enabled(None)


class TestSpans:
    def test_nesting_builds_parent_chain(self, obs_on):
        with obs.new_trace() as tr:
            with obs.span("outer"):
                with obs.span("inner", lane=3):
                    pass
        spans = {s.name: s for s in tr.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].attrs == {"lane": 3}
        assert spans["inner"].start <= spans["inner"].end

    def test_span_yields_mutable_attrs(self, obs_on):
        with obs.new_trace() as tr:
            with obs.span("op") as attrs:
                attrs["outcome"] = "hit"
        [span] = tr.spans()
        assert span.attrs["outcome"] == "hit"

    def test_span_without_trace_is_noop(self, obs_on):
        with obs.span("orphan") as attrs:
            assert attrs is None

    def test_ensure_trace_reuses_ambient(self, obs_on):
        with obs.new_trace() as outer:
            with obs.ensure_trace() as inner:
                assert inner is outer

    def test_exception_records_the_span_and_propagates(self, obs_on):
        """A block that raises still records its span (attrs as set
        inside the block), restores the parent span, and re-raises."""
        with obs.new_trace() as tr:
            with obs.span("outer"):
                with pytest.raises(KeyError):
                    with obs.span("boom", lane=1) as attrs:
                        attrs["outcome"] = "raised"
                        raise KeyError("lane")
                with obs.span("after"):
                    pass
        spans = {s.name: s for s in tr.spans()}
        boom = spans["boom"]
        assert boom.attrs == {"lane": 1, "outcome": "raised"}
        assert boom.end >= boom.start
        assert boom.parent_id == spans["outer"].span_id
        assert spans["after"].parent_id == spans["outer"].span_id

    def test_metric_observes_once_per_span(self, obs_on):
        hist = obs.GLOBAL.histogram("repro_cache_load_seconds")
        before = hist.snapshot()["count"]
        with obs.new_trace():
            with obs.span("cache.load", metric="repro_cache_load_seconds"):
                pass
            with obs.span("cache.load"):
                pass
            with pytest.raises(RuntimeError):
                with obs.span("cache.load",
                              metric="repro_cache_load_seconds"):
                    raise RuntimeError
        assert hist.snapshot()["count"] == before + 2

    def test_export_round_trips_through_dicts(self, obs_on):
        with obs.new_trace() as tr:
            with obs.span("a", k="v"):
                pass
        payload = json.loads(json.dumps(tr.export()))
        [restored] = [obs.Span.from_dict(p) for p in payload]
        assert restored == tr.spans()[0]


class TestAdoption:
    def _worker_payload(self):
        """Spans exported from a simulated worker trace."""
        with obs.new_trace() as wtr:
            with obs.span("shard.run", shard=0):
                with obs.span("lane.compute", index=2):
                    pass
        return wtr.export()

    def test_adoption_renumbers_and_reparents(self, obs_on):
        payload = self._worker_payload()
        with obs.new_trace() as tr:
            with obs.span("session.sweep"):
                obs.adopt_spans(payload, worker="shard-0")
        spans = {s.name: s for s in tr.spans()}
        root = spans["session.sweep"]
        shard = spans["shard.run"]
        lane = spans["lane.compute"]
        assert shard.parent_id == root.span_id
        assert lane.parent_id == shard.span_id
        assert shard.worker == lane.worker == "shard-0"
        ids = [s.span_id for s in tr.spans()]
        assert len(ids) == len(set(ids))

    def test_two_shards_never_collide(self, obs_on):
        a, b = self._worker_payload(), self._worker_payload()
        with obs.new_trace() as tr:
            with obs.span("session.sweep"):
                obs.adopt_spans(a, worker="shard-0")
                obs.adopt_spans(b, worker="shard-1")
        ids = [s.span_id for s in tr.spans()]
        assert len(ids) == len(set(ids))
        roots = [s for s in tr.spans() if s.name == "shard.run"]
        root_id = next(s.span_id for s in tr.spans()
                       if s.name == "session.sweep")
        assert all(s.parent_id == root_id for s in roots)

    def test_inherited_parent_id_does_not_leak(self, obs_on):
        """Regression: a forked worker inherits the coordinator's
        current-span contextvar; new_trace must clear it, or the
        worker's root would alias a worker-local id and re-parent onto
        the wrong adopted span."""
        with obs.new_trace() as outer:
            with obs.span("coordinator.op"):
                # simulates worker code running with inherited context
                with obs.new_trace() as wtr:
                    with obs.span("shard.run"):
                        pass
        [shard] = wtr.spans()
        assert shard.parent_id is None


class TestKillSwitch:
    def test_env_off_values(self, monkeypatch):
        obs.set_enabled(None)
        for raw in ("0", "off", "false", "no", "disabled", " OFF "):
            monkeypatch.setenv("REPRO_OBS", raw)
            obs.set_enabled(None)   # drop the env cache
            assert not obs.enabled()
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.set_enabled(None)
        assert obs.enabled()
        monkeypatch.delenv("REPRO_OBS")
        obs.set_enabled(None)

    def test_disabled_paths_have_zero_clock_reads(self, obs_off):
        assert obs.now() == 0.0

    def test_disabled_span_reads_no_clock(self, obs_off, monkeypatch):
        def no_clock():
            raise AssertionError("a disabled span read the clock")

        monkeypatch.setattr(time, "time", no_clock)
        with obs.new_trace():
            with obs.span("x", metric="repro_cache_load_seconds") as attrs:
                assert attrs is None

    def test_disabled_span_and_trace_yield_none(self, obs_off):
        with obs.ensure_trace() as tr:
            assert tr is None
        with obs.new_trace() as tr:
            assert tr is None
        with obs.span("x") as attrs:
            assert attrs is None
        assert obs.current_trace() is None

    def test_disabled_instruments_are_null(self, obs_off):
        assert obs.counter("repro_sweeps_total") is obs.NULL_INSTRUMENT
        assert obs.gauge("repro_workers") is obs.NULL_INSTRUMENT
        assert obs.histogram("repro_sweep_seconds") is obs.NULL_INSTRUMENT

    def test_disabled_worker_protocol_is_empty(self, obs_off):
        assert obs.metrics_baseline() is None
        assert obs.metrics_delta(None) == {}
        obs.merge_metrics({})   # no-op, no error


class TestChromeExport:
    def test_events_shape(self, obs_on):
        with obs.new_trace() as tr:
            with obs.span("sweep"):
                with obs.span("lane", index=1):
                    pass
        events = obs.chrome_trace_events(tr.spans())
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        assert [m["args"]["name"] for m in meta] == ["coordinator"]
        assert all(e["pid"] == os.getpid() for e in slices)
        assert all(e["dur"] >= 0 for e in slices)
        lane = next(e for e in slices if e["name"] == "lane")
        sweep = next(e for e in slices if e["name"] == "sweep")
        assert lane["args"]["parent_id"] == sweep["args"]["span_id"]
        json.dumps(events)   # wire-serializable

    def test_worker_tracks_get_named(self, obs_on):
        span = obs.Span(name="w", start=1.0, end=2.0, span_id=1,
                        parent_id=None, pid=4242, tid=1, worker="shard-3")
        events = obs.chrome_trace_events([span.to_dict()])
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "shard-3"
        assert meta[0]["pid"] == 4242


class TestPhaseClock:
    def test_segments_partition_total_exactly(self):
        clock = obs.PhaseClock()
        clock.tick("plan")
        for _ in range(100):
            pass
        clock.tick("execute")
        clock.tick("plan")       # names may recur; segments accumulate
        total = clock.stop()
        assert total == pytest.approx(sum(clock.phases.values()), abs=1e-12)
        assert set(clock.phases) == {"plan", "execute"}

    def test_stop_is_idempotent(self):
        clock = opened = obs.PhaseClock()
        opened.tick("only")
        first = clock.stop()
        assert clock.stop() == first

    def test_pre_tick_gap_charged_to_first_phase(self):
        """Time between construction and the first tick belongs to the
        first phase — the partition property has no untracked gap."""
        clock = obs.PhaseClock()
        clock.tick("first")
        total = clock.stop()
        assert total == pytest.approx(clock.phases["first"], abs=1e-12)
