"""RunResult serialization and the content-addressed ResultCache."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
import zipfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioSpec
from repro.serve import ServeClient, ServeError, SweepServer
from repro.session import cache as cache_mod
from repro.session import (ResultCache, Session, cache_key,
                           code_fingerprint, module_fingerprint)
from repro.sim import NS, US
from repro.system import RunResult, SystemConfig
from repro.trace import TraceSet


#: a non-default value per ``RunResult`` annotation, made from the
#: field's position so that no two fields share one
_SAMPLES = {
    "str": lambda i: f"label{i}",
    "float": lambda i: i + 0.1,
    "int": lambda i: 40 + i,
    "List[int]": lambda i: [i, i + 1, i + 2],
}


def _result(**kw):
    """A result with every ``RunResult`` field but ``trace`` away from
    its default (pass ``trace=`` for a traced one).  A field added to
    ``RunResult`` gets a sample from its annotation, or fails here."""
    values = dict(controller="async", v_final=3.300000000000001,
                  peak_coil_current=0.1 + 0.2,   # 0.30000000000000004
                  ripple=0.11951, coil_loss_w=1.23e-6,
                  efficiency=0.8765432109876543, ov_events=2,
                  cycles=[3, 4, 5, 6], metastable_events=1, trace=None)
    values.update(kw)
    for i, field in enumerate(fields(RunResult)):
        if field.name not in values:
            if field.type not in _SAMPLES:
                raise TypeError(f"no sample value for RunResult."
                                f"{field.name}: {field.type}")
            values[field.name] = _SAMPLES[field.type](i)
    return RunResult(**values)


def _trace(n=16, seed=0):
    rng = np.random.default_rng(seed)
    ts = TraceSet().add_grid("t", np.linspace(0.0, 1e-6, n))
    ts.add_channel("v_load", rng.standard_normal(n), grid="t")
    ts.add_channel("i_coil0", rng.standard_normal(n), grid="t")
    ts.add_grid("hl", [0.0, 3e-7, 5e-7])
    ts.add_channel("hl", [False, True, False], grid="hl")
    return ts


#: a cheap scenario for sweeps through a Session
_SPEC = {"controller": "async", "l_uh": 4.7, "r_load": 6.0,
         "sim_time": 1 * US, "dt": 1 * NS}


@pytest.fixture()
def fresh_fingerprint():
    """Forget the process's fingerprint so the next call computes it
    (and so reads and writes a memo); forgotten again afterwards."""

    def forget():
        code_fingerprint.cache_clear()

    forget()
    yield forget
    forget()


def _sign(body):
    """An entry file's bytes: the sha256 hex of ``body``, a newline,
    then ``body`` (the header line and any payload after it)."""
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _read_entry(cache, key):
    """``(digest line, header, payload)`` of ``key``'s entry file."""
    data = Path(cache._path(key)).read_bytes()
    digest, header, payload = data.split(b"\n", 2)
    return digest, json.loads(header), payload


def _rewrite(cache, key, edit=None, payload=None, sign=True):
    """Rewrite ``key``'s entry: ``edit(header)`` changes the header in
    place, ``payload`` replaces the bytes after it, and the digest line
    is computed again when ``sign``, else kept as it was."""
    digest, header, old_payload = _read_entry(cache, key)
    if edit is not None:
        edit(header)
    body = (json.dumps(header, sort_keys=True).encode() + b"\n"
            + (old_payload if payload is None else payload))
    Path(cache._path(key)).write_bytes(
        _sign(body) if sign else digest + b"\n" + body)


def _truncate(path):
    path = Path(path)
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])


def _config(**overrides):
    overrides.setdefault("controller", "async")
    overrides.setdefault("l_uh", 4.7)
    overrides.setdefault("r_load", 6.0)
    overrides.setdefault("sim_time", 1 * US)
    overrides.setdefault("dt", 1 * NS)
    return ScenarioSpec("k", overrides=overrides).to_config()


class TestRunResultSerialization:
    def test_round_trip_is_bit_identical(self):
        result = _result()
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result            # dataclass eq: exact floats

    def test_round_trip_survives_json(self):
        result = _result()
        payload = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(payload) == result

    def test_empty_cycles(self):
        result = _result(cycles=[])
        assert RunResult.from_dict(result.to_dict()).cycles == []

    def test_unknown_field_rejected(self):
        payload = _result().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunResult.from_dict(payload)

    def test_traced_result_round_trips_through_json(self):
        result = _result(trace=_trace())
        payload = json.loads(json.dumps(result.to_dict()))
        clone = RunResult.from_dict(payload)
        assert clone.trace == result.trace      # exact arrays
        assert clone == result

    def test_untraced_payload_has_no_trace_key(self):
        assert "trace" not in _result().to_dict()


class TestResultCacheStore:
    def test_store_then_load_bit_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        assert cache.store(key, _result(), meta={"spec": "k"})
        assert cache.load(key) == _result()
        assert len(cache) == 1
        assert list(cache.keys()) == [key]

    def test_every_field_round_trips(self, tmp_path):
        """A result with every field away from its default, trace
        included, loads back equal: a field the entry does not carry
        (one of a type the header skips, say) fails here."""
        result = _result(trace=_trace())
        for field in fields(RunResult):
            default = field.default if field.default_factory is MISSING \
                else field.default_factory()
            assert getattr(result, field.name) != default, field.name
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        assert cache.store(key, result)
        assert cache.load(key, want_trace=True) == result

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.load("0" * 64) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        """An unsigned payload, and a signed header that is not JSON,
        both read as misses."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        _rewrite(cache, key, payload=b"not an npz", sign=False)
        assert cache.load(key) is None
        Path(cache._path(key)).write_bytes(_sign(b"{ not json\n"))
        assert cache.load(key) is None

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        _truncate(cache._path(key))
        assert cache.load(key) is None

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        _rewrite(cache, key, edit=lambda header: header.update(format=999))
        assert cache.load(key) is None

    def test_readonly_never_writes(self, tmp_path, fresh_fingerprint):
        cache = ResultCache(root=tmp_path, mode="readonly")
        assert not cache.store(cache_key(_config()), _result())
        assert list(tmp_path.iterdir()) == []
        # nor does a sweep whose plan computes the fingerprint (and so
        # reads, but must not write, the memo)
        fresh_fingerprint()
        Session(cache="readonly", cache_dir=str(tmp_path)).sweep(
            [ScenarioSpec("ro", overrides=_SPEC)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["v_final", "peak_coil_current",
                                       "efficiency"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_result_is_never_stored(self, tmp_path, field,
                                               value):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        assert not cache.store(key, _result(**{field: value}))
        assert cache.load(key) is None
        assert list(tmp_path.iterdir()) == []

    def test_invalid_mode_rejected(self, tmp_path):
        # "off" is Session's word for no cache, not a ResultCache mode
        for mode in ("write-only", "off"):
            with pytest.raises(ValueError, match="mode"):
                ResultCache(root=tmp_path, mode=mode)

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(3):
            cache.store(cache_key(_config(seed=i)), _result())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_each_entry_is_one_file(self, tmp_path):
        """A traced and an untraced store each leave exactly one file
        in their key's shard."""
        cache = ResultCache(root=tmp_path)
        keys = ["aa" * 32, "bb" * 32]
        cache.store(keys[0], _result(trace=_trace()))
        cache.store(keys[1], _result())
        for key in keys:
            assert len(list((tmp_path / key[:2]).iterdir())) == 1

    def test_a_load_opens_one_file(self, tmp_path, monkeypatch):
        """A plain and a traced load of a traced entry each open its one
        file once, and no other."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        assert cache.load(key) == _result()
        assert cache.load(key, want_trace=True).trace == _trace()
        assert opened == [cache._path(key)] * 2

    def test_a_pair_in_the_previous_layout_is_never_seen(self, tmp_path):
        """A whole format-5 pair as the previous layout wrote it (a
        ``<key>.json`` sidecar signed over an ``<key>.npz``) sits beside
        the entry of its key: it is no hit, and no count, size, prune or
        clear sees it or removes it."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        empty_npz = b"PK\x05\x06" + bytes(18)
        sidecar = {"format": 5, "controller": "async", "code": "0" * 16,
                   "meta": {}, "result": _result().to_dict()}
        del sidecar["result"]["controller"]
        digest = hashlib.sha256(json.dumps(
            sidecar, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\0" + empty_npz)
        sidecar["sha256"] = digest.hexdigest()
        shard = tmp_path / key[:2]
        shard.mkdir()
        pair = [shard / f"{key}.json", shard / f"{key}.npz"]
        pair[0].write_text(json.dumps(sidecar, sort_keys=True, indent=1))
        pair[1].write_bytes(empty_npz)
        assert cache.load(key) is None
        assert (len(cache), cache.size_bytes()) == (0, 0)
        assert cache.prune(max_bytes=0) == 0 and cache.clear() == 0
        cache.store(key, _result())
        assert cache.load(key) == _result()
        assert len(cache) == 1
        assert cache.size_bytes() == Path(cache._path(key)).stat().st_size
        assert cache.prune(max_bytes=0) == 1
        cache.store(key, _result())
        assert cache.clear() == 1
        assert sorted(shard.iterdir()) == pair


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
class TestFileModes:
    """Entries and the fingerprint memo are created ``0o666`` less
    the umask, as the cache's directories are, so a shared cache root
    reads for every user and not only for the writer."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644),
                                             (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_entry_and_memo_follow_the_umask(self, tmp_path, monkeypatch,
                                             fresh_fingerprint, umask,
                                             mode):
        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        cache = ResultCache(root=tmp_path / "cache")
        previous = os.umask(umask)
        try:
            key = cache_key(_config())     # computes and memoizes
            assert cache.store(key, _result(), meta={"spec": "k"})
        finally:
            os.umask(previous)
        written = [Path(cache._path(key)),
                   default / cache_mod.FINGERPRINT_MEMO]
        assert {path.name: path.stat().st_mode & 0o777
                for path in written} == {path.name: mode
                                         for path in written}


class TestTracedEntries:
    """Cache entries embed the TraceSet of traced results (FORMAT 3)."""

    def test_traced_store_then_load_bit_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        traced = _result(trace=_trace())
        cache.store(key, traced)
        loaded = cache.load(key, want_trace=True)
        assert loaded.trace == traced.trace
        assert loaded == traced

    def test_want_trace_misses_on_untraced_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        assert cache.load(key) == _result()
        assert cache.load(key, want_trace=True) is None

    def test_plain_load_strips_the_stored_trace(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))
        loaded = cache.load(key)
        assert loaded is not None and loaded.trace is None
        assert loaded == _result()

    def test_traced_write_upgrades_an_untraced_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        cache.store(key, _result(trace=_trace()))
        assert cache.load(key, want_trace=True).trace == _trace()

    def test_corrupt_traced_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))
        _truncate(cache._path(key))
        assert cache.load(key, want_trace=True) is None
        assert cache.load(key) is None


class TestPrune:
    """`.repro_cache/` must not grow without bound: prune(max_bytes)
    evicts whole entries oldest-mtime-first, and a size-capped cache
    prunes itself on every store."""

    def _fill(self, cache, n, t0=1_000_000.0):
        keys = []
        for i in range(n):
            key = cache_key(_config(seed=i))
            cache.store(key, _result())
            os.utime(cache._path(key), (t0 + i, t0 + i))   # fixed ages
            keys.append(key)
        return keys

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        keys = self._fill(cache, 4)
        entry = cache.size_bytes() // 4
        removed = cache.prune(max_bytes=2 * entry + entry // 2)
        assert removed == 2
        assert cache.load(keys[0]) is None and cache.load(keys[1]) is None
        assert cache.load(keys[2]) == _result()
        assert cache.load(keys[3]) == _result()

    def test_prune_to_zero_clears(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache, 3)
        assert cache.prune(max_bytes=0) == 3
        assert len(cache) == 0

    def test_unbounded_cache_never_prunes(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache, 3)
        assert cache.prune() == 0
        assert len(cache) == 3

    def test_capped_cache_prunes_on_store(self, tmp_path):
        probe = ResultCache(root=tmp_path)
        key = cache_key(_config(seed=0))
        probe.store(key, _result())
        entry = probe.size_bytes()
        probe.clear()

        capped = ResultCache(root=tmp_path, max_bytes=2 * entry + entry // 2)
        self._fill(capped, 5)
        assert len(capped) == 2
        assert capped.size_bytes() <= capped.max_bytes
        # the newest entries survive
        assert capped.load(cache_key(_config(seed=4))) == _result()

    def test_readonly_never_prunes(self, tmp_path):
        rw = ResultCache(root=tmp_path)
        self._fill(rw, 3)
        ro = ResultCache(root=tmp_path, mode="readonly", max_bytes=0)
        assert ro.prune() == 0
        assert len(rw) == 3

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(root=tmp_path, max_bytes=-1)


class TestPruneEdgeCases:
    """ISSUE-5 satellite: prune() corner cases, including the larger
    traced entries."""

    def test_oversized_traced_entry_is_stripped_not_evicted(self, tmp_path):
        """A traced entry over the cap whose scalar payload fits is
        stripped down to it — the result survives, the waveform goes."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace(n=4096)))
        assert cache.size_bytes() > 1024
        assert cache.prune(max_bytes=1024) == 0   # nothing evicted
        assert cache.size_bytes() <= 1024
        assert cache.load(key) == _result()
        assert cache.load(key, want_trace=True) is None

    def test_entry_larger_than_cap_even_stripped_is_evicted(self, tmp_path):
        """When even the scalar payload cannot fit under the cap, prune
        must evict the entry (leaving an empty store) rather than loop
        or keep it."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace(n=4096)))
        assert cache._strip_trace(key) > 0
        scalar_size = cache.size_bytes()
        assert cache.prune(max_bytes=scalar_size // 2) == 1
        assert len(cache) == 0
        assert cache.load(key) is None

    def test_oversized_store_on_capped_cache_self_strips(self, tmp_path):
        """prune-on-store with a traced entry bigger than the whole cap
        keeps the scalar payload (it fits) and drops the waveform."""
        cache = ResultCache(root=tmp_path, max_bytes=1024)
        key = cache_key(_config())
        assert cache.store(key, _result(trace=_trace(4096)))
        assert len(cache) == 1
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.load(key) == _result()
        assert cache.load(key, want_trace=True) is None

    def test_mtime_ties_break_deterministically_by_key(self, tmp_path):
        """Entries sharing one mtime are evicted in sorted-key order, so
        two prunes of identical stores remove identical entries."""
        cache = ResultCache(root=tmp_path)
        keys = []
        for i in range(4):
            key = cache_key(_config(seed=i))
            cache.store(key, _result())
            os.utime(cache._path(key), (1_000_000.0, 1_000_000.0))   # tied
            keys.append(key)
        entry = cache.size_bytes() // 4
        assert cache.prune(max_bytes=2 * entry + entry // 2) == 2
        survivors = set(cache.keys())
        assert survivors == set(sorted(keys)[2:])   # smallest keys evicted

    def test_traced_entries_dominate_and_are_evicted_first_by_age(
            self, tmp_path):
        """A big old traced entry is evicted to make room for small new
        scalar entries; size accounting covers the trace payload."""
        cache = ResultCache(root=tmp_path)
        traced_key = cache_key(_config())
        cache.store(traced_key, _result(trace=_trace(n=8192)))
        traced_size = cache.size_bytes()
        os.utime(cache._path(traced_key), (1_000_000.0, 1_000_000.0))
        small_keys = []
        for i in range(3):
            key = cache_key(_config(seed=i + 1))
            cache.store(key, _result())
            os.utime(cache._path(key), (2_000_000.0 + i, 2_000_000.0 + i))
            small_keys.append(key)
        small_total = cache.size_bytes() - traced_size
        assert traced_size > small_total      # traces dominate the store
        assert cache.prune(max_bytes=small_total) == 1
        assert cache.load(traced_key) is None
        for key in small_keys:
            assert cache.load(key) == _result()

    def test_prune_interacts_with_store_cap_for_traced_entries(
            self, tmp_path):
        """A capped cache keeps the waveforms of only as many traced
        entries as fit, newest first — older entries degrade to their
        scalar payload instead of being lost."""
        probe = ResultCache(root=tmp_path)
        probe.store(cache_key(_config()), _result(trace=_trace(n=1024)))
        entry = probe.size_bytes()
        probe.clear()

        capped = ResultCache(root=tmp_path, max_bytes=2 * entry + entry // 2)
        keys = []
        for i in range(5):
            key = cache_key(_config(seed=i))
            capped.store(key, _result(trace=_trace(n=1024, seed=i)))
            os.utime(capped._path(key), (1_000_000.0 + i, 1_000_000.0 + i))
            keys.append(key)
        # every scalar result is still served
        assert len(capped) == 5
        assert capped.size_bytes() <= capped.max_bytes
        for i, key in enumerate(keys):
            assert capped.load(key) == _result()
        # the newest entry kept its waveform, the oldest lost theirs
        loaded = capped.load(keys[-1], want_trace=True)
        assert loaded is not None
        assert loaded.trace == _trace(n=1024, seed=4)
        assert capped.load(keys[0], want_trace=True) is None

    def test_prune_strips_oldest_traces_before_evicting_anything(
            self, tmp_path):
        """Traced/untraced interplay: when dropping the old entry's
        waveform is enough to fit the cap, nothing is evicted — the
        untraced newcomers and the stripped entry all survive."""
        cache = ResultCache(root=tmp_path)
        traced_key = cache_key(_config())
        cache.store(traced_key, _result(trace=_trace(n=2048)))
        os.utime(cache._path(traced_key), (1_000_000.0, 1_000_000.0))
        scalar_keys = []
        for i in range(3):
            key = cache_key(_config(seed=i + 1))
            cache.store(key, _result())
            os.utime(cache._path(key), (2_000_000.0 + i, 2_000_000.0 + i))
            scalar_keys.append(key)
        # cap: all four scalar payloads fit, the waveform does not
        cap = 5 * 1024
        assert cache.size_bytes() > cap
        assert cache.prune(max_bytes=cap) == 0
        assert cache.size_bytes() <= cap
        assert len(cache) == 4
        assert cache.load(traced_key) == _result()
        assert cache.load(traced_key, want_trace=True) is None
        for key in scalar_keys:
            assert cache.load(key) == _result()

    def test_strip_preserves_entry_age_for_later_eviction(self, tmp_path):
        """Stripping must not refresh an entry's mtime: the stripped
        oldest entry is still the first to go when whole-entry eviction
        does become necessary."""
        cache = ResultCache(root=tmp_path)
        old_key = cache_key(_config())
        cache.store(old_key, _result(trace=_trace(n=1024)))
        os.utime(cache._path(old_key), (1_000_000.0, 1_000_000.0))
        new_key = cache_key(_config(seed=1))
        cache.store(new_key, _result())
        os.utime(cache._path(new_key), (2_000_000.0, 2_000_000.0))
        assert cache._strip_trace(old_key) > 0
        mtime = Path(cache._path(old_key)).stat().st_mtime
        assert mtime == 1_000_000.0   # age preserved through the rewrite
        # force whole-entry eviction: cap below one scalar entry x2
        entry = cache.size_bytes() // 2
        assert cache.prune(max_bytes=entry + entry // 2) == 1
        assert cache.load(old_key) is None          # oldest evicted
        assert cache.load(new_key) == _result()     # newest survives

    def test_strip_is_idempotent_and_untraced_entries_unaffected(
            self, tmp_path):
        cache = ResultCache(root=tmp_path)
        traced_key = cache_key(_config())
        cache.store(traced_key, _result(trace=_trace(n=256)))
        scalar_key = cache_key(_config(seed=1))
        cache.store(scalar_key, _result())
        assert cache._strip_trace(traced_key) > 0
        assert cache._strip_trace(traced_key) == 0    # already stripped
        assert cache._strip_trace(scalar_key) == 0    # nothing to strip
        assert cache.load(traced_key) == _result()
        assert cache.load(scalar_key) == _result()

    def test_traced_rerun_reupgrades_a_stripped_entry(self, tmp_path):
        """The stripped entry behaves exactly like an untraced write:
        a traced re-run writes the waveform back under the same key."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace(n=256)))
        assert cache._strip_trace(key) > 0
        assert cache.load(key, want_trace=True) is None
        cache.store(key, _result(trace=_trace(n=256)))
        assert cache.load(key, want_trace=True).trace == _trace(n=256)

    def test_prune_evicts_an_entry_still_over_the_cap_once_stripped(
            self, tmp_path):
        """Pruning has no evict-only mode: a traced entry whose scalar
        half alone overflows the cap is stripped, then evicted, in one
        prune call."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace(n=2048)))
        assert cache.prune(max_bytes=1) == 1
        assert len(cache) == 0
        assert cache.size_bytes() == 0

    def test_entries_enumeration_is_path_sorted(self, tmp_path):
        """Regression for the repro.lint D03 finding: _entries() must
        enumerate in sorted path order, not filesystem glob order, so
        every downstream consumer is deterministic by construction."""
        cache = ResultCache(root=tmp_path)
        keys = []
        for i in range(6):
            key = cache_key(_config(seed=i))
            cache.store(key, _result())
            keys.append(key)
        listed = [key for _mtime, key, _size in cache._entries()]
        assert listed == sorted(keys)


class TestPayloadLayout:
    def test_derived_members_match_the_format_5_layout(self, tmp_path):
        """The header's ``result`` members are derived from RunResult's
        annotations; they must equal the FORMAT_VERSION 5 layout, or old
        entries misread.  Line 1 signs the rest of the file, line 2 is
        the header, and the payload after it holds only the trace
        arrays, or nothing for an untraced entry."""
        assert cache_mod.FORMAT_VERSION == 5
        assert cache_mod._FLOAT_FIELDS == (
            "v_final", "peak_coil_current", "ripple", "coil_loss_w",
            "efficiency")
        assert cache_mod._INT_FIELDS == (
            "ov_events", "metastable_events", "solver_ticks",
            "events_delivered", "clock_edges_simulated",
            "clock_edges_skipped")
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()), meta={"spec": "k"})
        path = Path(cache._path(key))
        assert path.name == f"{key}.entry"
        data = path.read_bytes()
        digest, header, payload = _read_entry(cache, key)
        assert data == _sign(data[len(digest) + 1:])
        assert sorted(header) == ["code", "controller", "format", "meta",
                                  "result", "trace"]
        assert list(header["result"]) == sorted(
            cache_mod._FLOAT_FIELDS + cache_mod._INT_FIELDS + ("cycles",))
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            members = archive.namelist()
        assert members and all(name.startswith("trace_")
                               for name in members)
        cache.store(key, _result())
        digest, header, payload = _read_entry(cache, key)
        assert "trace" not in header and payload == b""


class TestEntryIntegrity:
    """The digest line covers every byte after it, header and payload,
    so every damaged entry is a miss."""

    def test_untraced_hit_never_parses_the_npz(self, tmp_path,
                                               monkeypatch):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))

        def refuse(*args, **kwargs):
            raise AssertionError("an untraced hit parsed the npz")

        with monkeypatch.context() as patch:
            patch.setattr(np, "load", refuse)
            loaded = cache.load(key)
        assert loaded == _result()
        assert loaded.to_dict() == _result().to_dict()
        traced = cache.load(key, want_trace=True)
        assert traced.trace == _trace()
        assert traced == _result(trace=_trace())

    @pytest.mark.parametrize("field,value", [("v_final", 3.3),
                                             ("ov_events", 3),
                                             ("cycles", [3, 4, 5, 7])])
    def test_changed_header_number_misses(self, tmp_path, field, value):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        assert _read_entry(cache, key)[1]["result"][field] != value
        _rewrite(cache, key, sign=False,
                 edit=lambda header: header["result"].update({field: value}))
        assert cache.load(key) is None

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_payload_bit_flip_misses(self, tmp_path, traced, where):
        """One bit flipped in the signed bytes: in the payload of a
        traced entry, in the header of an untraced one (it has no
        payload)."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace() if traced else None))
        path = Path(cache._path(key))
        data = bytearray(path.read_bytes())
        digest, header, payload = _read_entry(cache, key)
        start = len(data) - len(payload) if traced else len(digest) + 1
        span = len(data) - start
        data[start + min(span - 1, int(span * where))] ^= 0x01
        path.write_bytes(bytes(data))
        assert cache.load(key) is None
        assert cache.load(key, want_trace=True) is None

    def test_payload_spliced_from_another_entry_misses(self, tmp_path):
        """Two entries with the same numbers but different waveforms:
        one's payload after the other's header is a miss either way."""
        cache = ResultCache(root=tmp_path)
        key_a, key_b = cache_key(_config()), cache_key(_config(seed=1))
        cache.store(key_a, _result(trace=_trace(seed=0)))
        cache.store(key_b, _result(trace=_trace(seed=1)))
        payload_a, payload_b = (_read_entry(cache, key)[2]
                                for key in (key_a, key_b))
        assert payload_a != payload_b and len(payload_a) == len(payload_b)
        _rewrite(cache, key_a, payload=payload_b, sign=False)
        assert cache.load(key_a) is None
        assert cache.load(key_a, want_trace=True) is None

    def test_format_4_header_misses(self, tmp_path):
        """A header claiming the previous format is a miss even with a
        valid digest: format-4 entries get no fallback reader."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result())
        _rewrite(cache, key, edit=lambda header: header.update(format=4))
        assert cache.load(key) is None

    @pytest.mark.parametrize("drift", [
        lambda numbers: numbers.update(removed_field=1),
        lambda numbers: numbers.update(ripple=0),
        lambda numbers: numbers.update(solver_ticks=7.0),
        lambda numbers: numbers.pop("clock_edges_skipped"),
        lambda numbers: numbers.update(ripple_v=numbers.pop("ripple")),
        lambda numbers: numbers.update(solver_ticks=True),
        lambda numbers: numbers.update(ripple=None),
        lambda numbers: numbers.update(cycles=len(numbers["cycles"])),
    ], ids=["extra_member", "float_to_int", "int_to_float",
            "missing_member", "renamed_member", "int_to_bool",
            "float_to_null", "cycles_not_a_list"])
    def test_other_result_layout_misses_and_serves_404(self, tmp_path,
                                                       drift):
        """An entry written for another ``RunResult`` (a field removed,
        retyped or added since) is a miss even with a valid digest, so
        a fetch by its old key answers 404, never a wrong-shaped
        result."""
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        key = cache_key(_config())
        session.cache.store(key, _result())
        assert session.cache.load(key) == _result()
        _rewrite(session.cache, key,
                 edit=lambda header: drift(header["result"]))
        assert session.cache.load(key) is None
        with SweepServer(session=session, job_workers=1) as srv:
            with pytest.raises(ServeError) as err:
                ServeClient(srv.url).result(key)
        assert err.value.code == 404

    @settings(max_examples=60, deadline=None)
    @given(floats=st.lists(
               st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 5e-324, 2.2250738585072e-308,
                                  1e308, -1e308]),
               min_size=5, max_size=5),
           ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=6,
                         max_size=6),
           cycles=st.lists(st.integers(0, 2**62), max_size=8))
    def test_numbers_round_trip_bit_identically(self, tmp_path_factory,
                                                floats, ints, cycles):
        cache = ResultCache(root=tmp_path_factory.mktemp("rt"))
        values = dict(zip(cache_mod._FLOAT_FIELDS, floats))
        values.update(zip(cache_mod._INT_FIELDS, ints))
        result = RunResult(controller="sync", cycles=cycles, **values)
        key = cache_key(_config())
        assert cache.store(key, result)
        loaded = cache.load(key)
        for name in cache_mod._FLOAT_FIELDS:
            got = getattr(loaded, name)
            assert type(got) is float
            assert np.float64(got).tobytes() == \
                np.float64(getattr(result, name)).tobytes()
        for name in cache_mod._INT_FIELDS:
            assert type(getattr(loaded, name)) is int
            assert getattr(loaded, name) == getattr(result, name)
        assert loaded.cycles == cycles

    def test_numpy_scalars_are_stored_as_plain_numbers(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        result = _result(v_final=np.float64(3.25), ov_events=np.int64(7),
                         cycles=list(np.arange(3, dtype=np.int64)))
        assert cache.store(key, result)
        assert cache.load(key) == _result(v_final=3.25, ov_events=7,
                                          cycles=[0, 1, 2])

    def test_strip_keeps_numbers_mtime_and_a_valid_digest(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace(n=512)))
        path = Path(cache._path(key))
        os.utime(path, (1_000_000.0, 1_000_000.0))
        assert cache._strip_trace(key) > 0
        assert path.stat().st_mtime == 1_000_000.0
        digest, header, payload = _read_entry(cache, key)
        assert "trace" not in header and payload == b""
        data = path.read_bytes()
        assert data == _sign(data[len(digest) + 1:])
        assert cache.load(key) == _result()
        assert cache.load(key, want_trace=True) is None

    def test_strip_never_re_signs_a_damaged_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))
        _rewrite(cache, key, sign=False,
                 edit=lambda header: header["result"].update(v_final=0.5))
        assert cache._strip_trace(key) == 0
        assert cache.load(key) is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_truncated_entry_leaks_no_file_handle(self, tmp_path):
        """A failed read closes what it opened: no fd outlives the load
        and no ``ResourceWarning`` fires, traced or untraced."""
        cache = ResultCache(root=tmp_path)
        key = cache_key(_config())
        cache.store(key, _result(trace=_trace()))
        _truncate(cache._path(key))
        for want_trace in (False, True):
            before = len(os.listdir("/proc/self/fd"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert cache.load(key, want_trace=want_trace) is None
                assert cache._strip_trace(key) == 0
            assert len(os.listdir("/proc/self/fd")) == before
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]


class TestKeyShape:
    """A key that is not 64 lowercase hex digits names no entry: it is a
    miss before any path is built, so ``../`` cannot leave the root."""

    def test_planted_entry_outside_the_root_is_never_served(self,
                                                            tmp_path):
        cache = ResultCache(root=tmp_path / "a" / "cache")
        key = cache_key(_config())
        cache.store(key, _result())
        planted = tmp_path / "top"
        planted.mkdir()
        path = Path(cache._path(key))
        shutil.copyfile(path, planted / f"planted{path.suffix}")
        escape = "../top/planted"
        # the guard is what stops it: the entry itself reads fine
        assert cache._load_entry(escape) == _result()
        assert cache.load(escape) is None
        assert cache.load(escape, want_trace=True) is None

    @pytest.mark.parametrize("bad", ["", "0" * 63, "0" * 65, "A" * 64,
                                     "g" * 64, "../" + "0" * 61,
                                     "0" * 63 + "\n"])
    def test_malformed_keys_are_misses(self, tmp_path, bad):
        cache = ResultCache(root=tmp_path)
        assert not cache_mod.is_cache_key(bad)
        assert cache.load(bad) is None

    def test_real_keys_have_the_shape(self):
        assert cache_mod.is_cache_key(cache_key(_config()))


class TestCacheKey:
    def test_stable_for_equal_configs(self):
        assert cache_key(_config()) == cache_key(_config())

    def test_trace_normalised_out(self):
        assert (cache_key(_config(trace=True))
                == cache_key(_config(trace=False)))

    @pytest.mark.parametrize("change", [
        {"seed": 1}, {"l_uh": 1.0}, {"r_load": 9.0}, {"dt": 2 * NS},
        {"controller": "sync"}, {"sensor_noise": 0.004},
    ])
    def test_config_changes_change_the_key(self, change):
        assert cache_key(_config(**change)) != cache_key(_config())

    @pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig)])
    def test_every_field_but_trace_moves_the_key(self, name,
                                                 config_variant):
        base = _config()
        moved = cache_key(config_variant(base, name)) != cache_key(base)
        assert moved == (name != "trace"), name

    def test_measurement_knobs_change_the_key(self):
        base = cache_key(_config())
        assert cache_key(_config(), settle=0.0) != base
        assert cache_key(_config(), backend="scalar") != base
        assert cache_key(_config(), track_energy=False) != base

    def test_stepping_mode_and_tolerances_change_the_key(self):
        """Fixed and adaptive results must never collide, and neither
        must two adaptive runs at different tolerances."""
        base = cache_key(_config())
        adaptive = cache_key(_config(stepping="adaptive"))
        assert adaptive != base
        assert cache_key(_config(stepping="adaptive", rtol=1e-4)) != adaptive
        assert cache_key(_config(stepping="adaptive", dt_max=8 * NS)) != adaptive
        assert cache_key(_config(stepping="adaptive", atol_i=1e-5)) != adaptive

    def test_fingerprint_changes_the_key(self):
        base = cache_key(_config())
        assert cache_key(_config(), fingerprint="deadbeef") != base

    def test_resolved_config_is_the_address(self):
        """Two spec spellings that expand to the same config share a key."""
        from repro.analog.coil import make_coil
        from repro.sim import UH
        via_pseudo = ScenarioSpec("a", overrides={
            "controller": "async", "l_uh": 4.7, "r_load": 6.0,
            "sim_time": 1 * US, "dt": 1 * NS}).to_config()
        via_field = ScenarioSpec("b", overrides={
            "controller": "async", "coil": make_coil(4.7 * UH),
            "r_load": 6.0, "sim_time": 1 * US, "dt": 1 * NS}).to_config()
        assert cache_key(via_pseudo) == cache_key(via_field)

    def test_keys_at_a_fixed_fingerprint_are_pinned(self):
        """The key bytes themselves, not two keys from the same code: a
        codec or payload change that moves them orphans every cache
        entry, and must come with a ``FORMAT_VERSION`` bump and a new
        pin here."""
        from repro.analog.coil import make_coil
        from repro.analog.load import LoadProfile
        from repro.analog.sensors import BuckReferences
        from repro.control.async_controller import AsyncTimings
        from repro.control.params import BuckControlParams
        from repro.sim import UH
        specs = {
            "31a1ccc4480a24560be1cbabcabf1105"
            "ca46e0242e1b622e1540bb73bb796a87": ScenarioSpec(
                "a", overrides={}),
            "474c7a45dc3934f305a98502917240cb"
            "8e34c0a71cdf03e72fa127ec0c873499": ScenarioSpec(
                "b", overrides={
                    "controller": "sync", "coil": make_coil(2.25 * UH),
                    "load": LoadProfile.fig6_scenario(),
                    "refs": BuckReferences(v_ref=3.2),
                    "params": BuckControlParams(pmin=3 * NS),
                    "timings": AsyncTimings(hl_fwd=0.4 * NS),
                    "sim_time": 2 * US}),
            "7131956b3b5830079713e0c86e45f72a"
            "73a9e9b5e3d390e1ae6e4c9fadee21fb": ScenarioSpec(
                "c", overrides={"l_uh": 4.7, "stepping": "adaptive",
                                "rtol": 1e-4}),
        }
        for pinned, spec in specs.items():
            assert cache_key(spec.to_config(), fingerprint="0" * 16,
                             backend="vector",
                             track_energy=False) == pinned, spec.name


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16
        int(code_fingerprint(), 16)   # hex

    def test_covers_the_simulation_modules(self):
        from pathlib import Path
        package_root = Path(cache_mod.__file__).resolve().parent.parent
        for entry in cache_mod.FINGERPRINT_PATHS:
            assert (package_root / entry).exists(), entry


class TestModuleFingerprint:
    """The fingerprint hashes the docstring-stripped AST, so edits that
    cannot change results keep every cache key stable."""

    BASE = (
        '"""Module docstring."""\n'
        "def solve(x):\n"
        '    """Return the doubled value."""\n'
        "    y = 2 * x\n"
        "    return y\n"
    )

    def test_comment_only_edit_keeps_the_fingerprint(self):
        commented = ("# a new leading comment\n"
                     + self.BASE.replace("    y = 2 * x\n",
                                         "    y = 2 * x  # double it\n"))
        assert module_fingerprint(commented) == module_fingerprint(self.BASE)

    def test_docstring_and_whitespace_edits_keep_the_fingerprint(self):
        reworded = self.BASE.replace("Return the doubled value.",
                                     "Twice the input, computed cheaply.")
        reworded = reworded.replace('"""Module docstring."""',
                                    '"""A much longer module docstring."""')
        respaced = reworded.replace("def solve", "\n\ndef solve")
        assert module_fingerprint(respaced) == module_fingerprint(self.BASE)

    def test_code_edit_changes_the_fingerprint(self):
        changed = self.BASE.replace("2 * x", "3 * x")
        assert module_fingerprint(changed) != module_fingerprint(self.BASE)

    def test_unparseable_source_falls_back_to_raw_hash(self):
        broken_a = "def f(:\n"
        broken_b = "def g(:\n"
        assert module_fingerprint(broken_a) == module_fingerprint(broken_a)
        assert module_fingerprint(broken_a) != module_fingerprint(broken_b)

    def test_process_fingerprint_ignores_comment_edits(self, tmp_path,
                                                       monkeypatch):
        """End to end: a comment edit in a fingerprinted tree keeps
        code_fingerprint() stable; a code edit changes it."""
        pkg = tmp_path / "analog"
        pkg.mkdir()
        mod = pkg / "solver.py"
        mod.write_text(self.BASE)
        (tmp_path / "session").mkdir()
        (tmp_path / "session" / "cache.py").write_text("RULES = 1\n")
        monkeypatch.setattr(cache_mod, "FINGERPRINT_PATHS", ("analog",))
        monkeypatch.setattr(cache_mod, "__file__",
                            str(tmp_path / "session" / "cache.py"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))

        def fingerprint():
            cache_mod.code_fingerprint.cache_clear()
            return cache_mod.code_fingerprint()

        base = fingerprint()
        mod.write_text("# comment\n" + self.BASE)
        assert fingerprint() == base
        mod.write_text(self.BASE.replace("2 * x", "5 * x"))
        assert fingerprint() != base
        cache_mod.code_fingerprint.cache_clear()


class TestFingerprintMemo:
    """``<cache root>/fingerprint.json`` maps each module's raw-bytes
    hash to its AST digest: it saves a fresh process the parse, never
    changes the value, and is written by ``readwrite`` caches and, for
    a call with no readable cache, under the default cache root."""

    BASE = TestModuleFingerprint.BASE

    @pytest.fixture()
    def tree(self, tmp_path, monkeypatch, fresh_fingerprint):
        """A two-module fingerprinted tree; returns a counter of
        :func:`module_fingerprint` calls (i.e. parses)."""
        pkg = tmp_path / "pkg"
        (pkg / "analog").mkdir(parents=True)
        (pkg / "session").mkdir()
        (pkg / "analog" / "solver.py").write_text(self.BASE)
        (pkg / "analog" / "other.py").write_text("def g():\n    return 1\n")
        (pkg / "session" / "cache.py").write_text("RULES = 1\n")
        monkeypatch.setattr(cache_mod, "FINGERPRINT_PATHS", ("analog",))
        monkeypatch.setattr(cache_mod, "__file__",
                            str(pkg / "session" / "cache.py"))
        parses = []
        real = cache_mod.module_fingerprint
        monkeypatch.setattr(cache_mod, "module_fingerprint",
                            lambda src: parses.append(src) or real(src))
        self.pkg = pkg
        self.root = tmp_path / "cache"
        self.memo = self.root / cache_mod.FINGERPRINT_MEMO
        self.default = tmp_path / "default"
        self.default_memo = self.default / cache_mod.FINGERPRINT_MEMO
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.default))
        return parses

    def fingerprint(self, mode="readwrite"):
        code_fingerprint.cache_clear()
        if mode is None:
            return code_fingerprint()
        return code_fingerprint(ResultCache(self.root, mode=mode))

    def test_cold_then_warm_memo_gives_the_memo_free_value(self, tree):
        plain = self.fingerprint(None)
        assert len(tree) == 2 and not self.root.exists()
        assert self.fingerprint() == plain          # cold: writes
        assert self.memo.is_file()
        written = self.memo.stat().st_mtime_ns
        del tree[:]
        assert self.fingerprint() == plain          # warm: no parse
        assert tree == []
        assert self.memo.stat().st_mtime_ns == written   # unchanged: kept

    @pytest.mark.parametrize("damage", [
        "truncated", "not json", "list", "modules list", "int digests",
        "foreign cache_tag", "rules edited"])
    def test_bad_memo_is_a_miss(self, tree, damage):
        plain = self.fingerprint(None)
        self.fingerprint()
        good = json.loads(self.memo.read_text())
        if damage == "rules edited":    # cache.py may strip differently
            (self.pkg / "session" / "cache.py").write_text("RULES = 2\n")
        else:
            self.memo.write_text({
                "truncated": self.memo.read_text()[:40],
                "not json": "{ not json",
                "list": json.dumps([good]),
                "modules list": json.dumps(dict(good, modules=[])),
                "int digests": json.dumps(dict(good, modules={
                    k: 7 for k in good["modules"]})),
                "foreign cache_tag": json.dumps(dict(good,
                                                     cache_tag="pypy-0")),
            }[damage])
        del tree[:]
        assert self.fingerprint() == plain
        assert len(tree) == 2                       # everything reparsed
        repaired = json.loads(self.memo.read_text())
        assert sorted(repaired["modules"]) == sorted(good["modules"])
        del tree[:]
        assert self.fingerprint() == plain and tree == []

    def test_only_edited_modules_are_reparsed(self, tree):
        self.fingerprint()
        base = self.fingerprint()
        solver = self.pkg / "analog" / "solver.py"
        del tree[:]
        solver.write_text("# comment\n" + self.BASE)
        assert self.fingerprint() == base           # comment: same value
        assert len(tree) == 1
        del tree[:]
        solver.write_text(self.BASE.replace("2 * x", "5 * x"))
        edited = self.fingerprint()
        assert edited != base and len(tree) == 1
        assert edited == self.fingerprint(None)

    def test_readonly_reads_but_never_writes(self, tree):
        self.fingerprint("readonly")
        assert not self.root.exists() and not self.default.exists()
        self.fingerprint()                          # warm it
        del tree[:]
        memo = self.memo.read_text()
        (self.pkg / "analog" / "other.py").write_text("def g():\n    pass\n")
        self.fingerprint("readonly")
        assert len(tree) == 1                       # solver.py from memo
        assert self.memo.read_text() == memo

    def test_bare_call_memo_lives_under_the_default_root(self, tree):
        plain = self.fingerprint(None)              # cold: parses, writes
        assert len(tree) == 2 and self.default_memo.is_file()
        assert not self.root.exists()
        written = self.default_memo.stat().st_mtime_ns
        del tree[:]
        assert self.fingerprint(None) == plain and tree == []
        assert self.default_memo.stat().st_mtime_ns == written
        (self.pkg / "analog" / "other.py").write_text("def g():\n    pass\n")
        edited = self.fingerprint(None)
        assert edited != plain and len(tree) == 1   # only the edit
        del tree[:]
        assert self.fingerprint(None) == edited and tree == []

    @pytest.mark.parametrize("damage", ["unwritable root", "corrupt memo"])
    def test_bad_default_root_still_gives_the_value(self, tree, damage):
        plain = self.fingerprint(None)
        shutil.rmtree(self.default)
        if damage == "unwritable root":             # a file, not a dir
            self.default.write_text("not a directory")
        else:
            self.default.mkdir()
            self.default_memo.write_text("{ not json")
        del tree[:]
        assert self.fingerprint(None) == plain and len(tree) == 2
        del tree[:]
        if damage == "unwritable root":             # every process parses
            assert self.fingerprint(None) == plain and len(tree) == 2
            assert self.default.read_text() == "not a directory"
        else:                                       # the miss repaired it
            assert self.fingerprint(None) == plain and tree == []

    def test_computed_once_per_process(self, tree):
        """Only the computing call consults a memo; later calls, with
        any cache, return the process value and touch no file."""
        code_fingerprint.cache_clear()
        value = code_fingerprint()
        assert code_fingerprint(ResultCache(self.root)) == value
        assert not self.root.exists() and len(tree) == 2


class TestFingerprintMemoInSessions:
    def test_readwrite_sweep_writes_a_memo_entries_ignore(
            self, tmp_path, fresh_fingerprint):
        plain = code_fingerprint()
        fresh_fingerprint()
        session = Session(cache="readwrite", cache_dir=str(tmp_path))
        session.sweep([ScenarioSpec("rw", overrides=_SPEC)])
        assert code_fingerprint() == plain
        cache = session.cache
        memo = tmp_path / cache_mod.FINGERPRINT_MEMO
        assert memo.is_file()
        [key] = cache.keys()
        assert len(cache) == 1
        assert cache.size_bytes() == Path(cache._path(key)).stat().st_size
        assert cache.prune(max_bytes=0) == 1
        assert len(cache) == 0 and cache.size_bytes() == 0
        assert memo.is_file()

    def test_off_session_writes_nothing(self, tmp_path, fresh_fingerprint):
        Session(cache="off", cache_dir=str(tmp_path / "c")).sweep(
            [ScenarioSpec("off", overrides=_SPEC)])
        assert not (tmp_path / "c").exists()

    def test_off_session_reads_the_default_root_memo(
            self, tmp_path, monkeypatch, fresh_fingerprint):
        """A cache-off sweep's receipt computes the fingerprint with no
        cache; in a fresh process it hashes files instead of parsing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        plain = code_fingerprint()
        assert (tmp_path / "default" / cache_mod.FINGERPRINT_MEMO).is_file()
        fresh_fingerprint()
        parses = []
        real = cache_mod.module_fingerprint
        monkeypatch.setattr(cache_mod, "module_fingerprint",
                            lambda src: parses.append(src) or real(src))
        session = Session(cache="off", cache_dir=str(tmp_path / "c"))
        session.sweep([ScenarioSpec("off", overrides=_SPEC)])
        assert code_fingerprint() == plain and parses == []
        assert not (tmp_path / "c").exists()


#: prints the bare fingerprint of a fresh interpreter and how many
#: modules it parsed to get it
_FRESH_FINGERPRINT = """
import json
from repro.session import cache
parses = []
real = cache.module_fingerprint
cache.module_fingerprint = lambda src: parses.append(src) or real(src)
print(json.dumps([cache.code_fingerprint(), len(parses)]))
"""


def test_fresh_interpreters_share_the_default_root_memo(tmp_path):
    """The second of two fresh processes on one ``REPRO_CACHE_DIR``
    parses nothing and prints the first, memo-free, value."""
    import repro
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "default"))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _FRESH_FINGERPRINT], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(2)]
    (cold, parsed), (warm, reparsed) = runs
    package = Path(src) / "repro"
    files = [f for entry in cache_mod.FINGERPRINT_PATHS
             for f in ([package / entry] if (package / entry).is_file()
                       else (package / entry).rglob("*.py"))]
    assert parsed == len(files) and reparsed == 0
    assert cold == warm == code_fingerprint()
    assert not (tmp_path / ".repro_cache").exists()
