"""Run receipts: reproducibility fields, cache-hot second runs, lane
coverage under sharding, and on-disk placement (satellite 4)."""

import json
import os

import pytest

from repro import Session, obs
from repro.scenarios import ScenarioSpec
from repro.session import ResultCache
from repro.session.cache import RECEIPTS_DIR
from repro.sim import NS, US


def _spec(name, **overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("n_phases", 2)
    overrides.setdefault("sim_time", 2 * US)
    overrides.setdefault("dt", 1 * NS)
    return ScenarioSpec(name, overrides=overrides)


def _grid(n=4):
    return [_spec(f"g{i}", r_load=3.0 + i) for i in range(n)]


def _session(tmp_path, **kw):
    kw.setdefault("cache", "readwrite")
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return Session(**kw)


class TestReceiptReproducibility:
    def test_same_spec_twice_identical_hashes_and_fingerprint(self,
                                                              tmp_path):
        session = _session(tmp_path)
        specs = _grid(2)
        session.sweep(specs)
        first = session.last_receipt()
        session.sweep(specs)
        second = session.last_receipt()
        assert first["sweep_id"] == second["sweep_id"]
        assert first["keys"] == second["keys"]
        assert first["code_fingerprint"] == second["code_fingerprint"]
        assert first["code_fingerprint"] is not None

    def test_second_run_is_fully_cache_hot(self, tmp_path):
        session = _session(tmp_path)
        specs = _grid(2)
        session.sweep(specs)
        cold = session.last_receipt()
        assert cold["cache"] == {"mode": "readwrite", "hits": 0,
                                 "misses": 2, "inflight_waits": 0,
                                 "hit_ratio": 0.0}
        session.sweep(specs)
        hot = session.last_receipt()
        assert hot["cache"]["hits"] == 2
        assert hot["cache"]["misses"] == 0
        assert hot["cache"]["hit_ratio"] == 1.0
        assert all(lane["cached"] for lane in hot["lanes"])

    def test_phase_walltimes_partition_total(self, tmp_path):
        session = _session(tmp_path)
        session.sweep(_grid(2))
        receipt = session.last_receipt()
        assert set(receipt["phases"]) >= {"plan", "lookup", "execute",
                                          "finalize"}
        assert sum(receipt["phases"].values()) == \
            pytest.approx(receipt["wall_s"], rel=0.10)

    def test_receipt_counters_match_results(self, tmp_path):
        session = _session(tmp_path)
        points = session.sweep(_grid(2))
        receipt = session.last_receipt()
        assert receipt["counters"]["solver_ticks"] == \
            sum(p.result.solver_ticks for p in points)
        assert receipt["counters"]["events_delivered"] == \
            sum(p.result.events_delivered for p in points)


class TestShardedReceipts:
    def test_workers2_timings_cover_every_lane(self, tmp_path):
        session = _session(tmp_path, workers=2)
        specs = _grid(4)
        points = session.sweep(specs)
        receipt = session.last_receipt()
        assert receipt["workers"] == 2
        assert receipt["n_lanes"] == 4
        assert [lane["index"] for lane in receipt["lanes"]] == [0, 1, 2, 3]
        for lane, point in zip(receipt["lanes"], points):
            assert lane["landed_s"] is not None
            assert lane["landed_s"] >= 0.0
            assert lane["spec"] == point.spec.name
            assert lane["key"] == point.key

    def test_sharded_run_keeps_one_receipt_per_sweep(self, tmp_path):
        session = _session(tmp_path, workers=2)
        session.sweep(_grid(4))
        receipt = session.last_receipt()
        assert receipt["schema"] == obs.RECEIPT_SCHEMA
        assert receipt["kind"] == "sweep-receipt"


class TestReceiptPlacement:
    def test_written_next_to_cache_entries(self, tmp_path):
        session = _session(tmp_path)
        session.sweep(_grid(2))
        receipt = session.last_receipt()
        path = receipt["artifacts"]["receipt_path"]
        assert path is not None and os.path.exists(path)
        assert os.path.dirname(path) == \
            os.path.join(str(session.cache.root), RECEIPTS_DIR)
        loaded = obs.load_receipt(path)
        assert loaded == json.loads(json.dumps(receipt))

    def test_receipts_invisible_to_cache_scans(self, tmp_path):
        session = _session(tmp_path)
        session.sweep(_grid(2))
        keys = set(session.cache.keys())
        assert keys == set(session.last_receipt()["keys"])
        # pruning to zero clears entries but never chokes on receipts
        session.cache.prune(max_bytes=0)
        assert list(session.cache.keys()) == []
        assert os.path.exists(
            session.last_receipt()["artifacts"]["receipt_path"])

    def test_readonly_cache_skips_the_write(self, tmp_path):
        rw = _session(tmp_path)
        rw.sweep(_grid(1))
        ro = Session(cache="readonly", cache_dir=str(tmp_path / "cache"))
        ro.sweep(_grid(1))
        receipt = ro.last_receipt()
        assert receipt["cache"]["hits"] == 1
        assert receipt["artifacts"]["receipt_path"] is None

    def test_concurrent_writes_of_one_sweep_id_never_error(self, tmp_path):
        """Regression: two threads sweeping identical specs share one
        sweep_id; their atomic-replace tmp files must not collide."""
        import threading

        receipt = {"sweep_id": "cafe" * 4, "payload": 1}
        cache = ResultCache(root=tmp_path)
        errors = []
        barrier = threading.Barrier(4)

        def write():
            try:
                barrier.wait()
                for _ in range(25):
                    cache.write_receipt(receipt)
            except Exception as exc:     # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert obs.load_receipt(
            str(cache.receipt_path(receipt["sweep_id"]))) == receipt
        assert os.listdir(tmp_path / RECEIPTS_DIR) == ["cafe" * 4 + ".json"]

    def test_a_failed_write_leaves_only_finished_receipts(self, tmp_path,
                                                          monkeypatch):
        """A receipt whose rename fails raises out of the sweep and
        leaves no temp file beside the receipts already written."""
        session = _session(tmp_path)
        session.sweep(_grid(1))
        receipts = os.path.join(str(session.cache.root), RECEIPTS_DIR)
        finished = os.listdir(receipts)
        replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if os.path.dirname(str(dst)) == receipts:
                raise OSError("no space left on device")
            return replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space"):
            session.sweep(_grid(2))
        monkeypatch.setattr(os, "replace", replace)
        assert len(finished) == 1
        assert os.listdir(receipts) == finished

    def test_no_receipt_when_disabled(self, tmp_path):
        obs.set_enabled(False)
        try:
            session = _session(tmp_path)
            session.sweep(_grid(1))
            assert session.last_receipt() is None
            assert session.last_trace_spans() == []
            assert not os.path.exists(
                os.path.join(str(session.cache.root), RECEIPTS_DIR))
        finally:
            obs.set_enabled(None)
