"""Multi-process stress for the concurrent-safe ResultCache.

N writer processes, M reader processes, and a pruner hammer one cache
directory.  The invariants under test are the cache's concurrency
contract (see the module docstring of :mod:`repro.session.cache`):

* **no torn reads** — a reader sees a miss or the exact expected
  content for that key, never a mangled result;
* **no lost entries** — with an uncapped pruner, every key written is
  loadable afterwards;
* **upgrades never leak** — a plain read racing a traced upgrade of the
  same key sees a miss or the exact untraced result;
* **prune never deletes mid-store** — entries re-stored during a prune
  scan survive, and the end state holds only whole entries: no temp
  file, and no entry whose digest fails;
* **stores and compaction exclude each other** — a store publishes
  under the lockfile held shared, a prune holds it exclusive, so no
  store lands between an eviction's mtime re-check and its unlink.

Results are synthetic and derived deterministically from the key index,
so any cross-contamination between entries is detectable.
"""

import hashlib
import json
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.session import ResultCache
from repro.session.cache import FINGERPRINT_MEMO, RECEIPTS_DIR
from repro.system import RunResult
from repro.trace import TraceSet

N_KEYS = 12
N_WRITERS = 3
N_READERS = 3
ROUNDS = 6          # store rounds per writer
READS = 200         # load attempts per reader


def _key(i: int) -> str:
    return hashlib.sha256(f"stress-{i}".encode()).hexdigest()


def _result(i: int, traced: bool) -> RunResult:
    trace = None
    if traced:
        trace = (TraceSet()
                 .add_grid("t", np.linspace(0.0, 1e-6, 64))
                 .add_channel("v_load",
                              np.full(64, float(i), dtype=np.float64),
                              grid="t"))
    return RunResult(controller=f"ctl{i}", v_final=1.0 + i,
                     peak_coil_current=0.25 * i, ripple=0.001 * i,
                     coil_loss_w=1e-6 * i, efficiency=0.5 + 0.01 * i,
                     ov_events=i, cycles=[i, i + 1, i + 2],
                     metastable_events=i % 3, solver_ticks=100 + i,
                     trace=trace)


def _matches(result: RunResult, i: int) -> bool:
    expected = _result(i, traced=False)
    got = result.to_dict()
    got.pop("trace", None)
    return got == expected.to_dict()


def _writer(root: str, seed: int, errors) -> None:
    cache = ResultCache(root=root)
    rng = np.random.default_rng(seed)
    for round_no in range(ROUNDS):
        for i in rng.permutation(N_KEYS):
            i = int(i)
            # traced and untraced stores interleave: strip/evict passes
            # race against both shapes
            traced = (i + round_no + seed) % 3 == 0
            if not cache.store(_key(i), _result(i, traced)):
                errors.put(f"writer {seed}: store refused for key {i}")
                return


def _reader(root: str, seed: int, errors) -> None:
    cache = ResultCache(root=root, mode="readonly")
    rng = np.random.default_rng(seed)
    for _ in range(READS):
        i = int(rng.integers(N_KEYS))
        result = cache.load(_key(i))
        if result is None:
            continue          # a miss is always legal mid-write
        if not _matches(result, i):
            errors.put(f"reader {seed}: torn/foreign content for key {i}")
            return
        traced = cache.load(_key(i), want_trace=True)
        if traced is not None:
            if traced.trace is None \
                    or traced.trace.values("v_load")[0] != float(i):
                errors.put(f"reader {seed}: wrong trace for key {i}")
                return


def _pruner(root: str, limit: int, errors) -> None:
    cache = ResultCache(root=root)
    for _ in range(40):
        try:
            cache.prune(max_bytes=limit)
        except Exception as exc:   # noqa: BLE001 - surfaced via the queue
            errors.put(f"pruner: {exc!r}")
            return


def _run_processes(targets) -> list:
    ctx = multiprocessing.get_context("spawn")
    errors = ctx.Queue()
    procs = [ctx.Process(target=fn, args=args + (errors,))
             for fn, args in targets]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=300)
    alive = [p for p in procs if p.is_alive()]
    for p in alive:
        p.terminate()
    assert not alive, "stress processes deadlocked"
    out = []
    while not errors.empty():
        out.append(errors.get())
    return out


def _digest_holds(data: bytes) -> bool:
    digest, _, body = data.partition(b"\n")
    return digest == hashlib.sha256(body).hexdigest().encode()


def _entry_state(cache: ResultCache, i: int) -> str:
    """What is on disk for key ``i``, for a failure message."""
    path = Path(cache._path(_key(i)))
    if not path.exists():
        return "no entry on disk"
    data = path.read_bytes()
    header = json.loads(data.split(b"\n", 2)[1])
    shape = "traced" if "trace" in header else "untraced"
    return (f"{shape} entry of {len(data)} bytes, "
            f"digest holds: {_digest_holds(data)}")


def _assert_only_whole_entries(root: str) -> None:
    """Every file under the root is an entry whose digest holds, the
    fingerprint memo, the lockfile or a receipt: no temp file is left."""
    for path in Path(root).rglob("*"):
        name = path.relative_to(root).as_posix()
        if path.is_dir() or name in (FINGERPRINT_MEMO, ".writer.lock") \
                or name.startswith(f"{RECEIPTS_DIR}/"):
            continue
        assert path.suffix == ".entry", f"stray file {name}"
        assert _digest_holds(path.read_bytes()), f"damaged entry {name}"


@pytest.mark.parametrize("capped", [False, True],
                         ids=["uncapped", "capped-pruner"])
def test_writers_readers_and_pruner_share_one_directory(tmp_path, capped):
    root = str(tmp_path / "cache")
    # seed one full round so readers have something to hit immediately
    seeded = ResultCache(root=root)
    for i in range(N_KEYS):
        seeded.store(_key(i), _result(i, traced=i % 3 == 0))

    # a tight cap forces real evictions; the uncapped variant proves
    # no entry is ever lost without eviction pressure
    limit = 6 * 1024 if capped else 1 << 40
    targets = (
        [(_writer, (root, seed)) for seed in range(N_WRITERS)]
        + [(_reader, (root, 1000 + seed)) for seed in range(N_READERS)]
        + [(_pruner, (root, limit))]
    )
    errors = _run_processes(targets)
    assert not errors, errors

    _assert_only_whole_entries(root)
    cache = ResultCache(root=root)
    if not capped:
        # nothing was over the cap, so nothing may have been evicted:
        # every key loads and carries exactly its own content
        for i in range(N_KEYS):
            result = cache.load(_key(i))
            assert result is not None, (
                f"entry {i} lost without eviction: {_entry_state(cache, i)}")
            assert _matches(result, i)
    else:
        # eviction is allowed to drop entries, never to corrupt them
        for i in range(N_KEYS):
            result = cache.load(_key(i))
            assert result is None or _matches(result, i)


def test_concurrent_pruners_serialize_on_the_writer_lock(tmp_path):
    root = str(tmp_path / "cache")
    cache = ResultCache(root=root)
    for i in range(N_KEYS):
        cache.store(_key(i), _result(i, traced=True))
    errors = _run_processes([(_pruner, (root, 4 * 1024)),
                             (_pruner, (root, 4 * 1024))])
    assert not errors, errors
    _assert_only_whole_entries(root)
    # whatever survived is intact
    survivor = ResultCache(root=root)
    for i in range(N_KEYS):
        result = survivor.load(_key(i))
        assert result is None or _matches(result, i)


def test_store_during_prune_survives(tmp_path):
    """An entry re-stored while a prune pass is scanning must not be
    deleted mid-store: the eviction loop re-checks mtimes."""
    root = str(tmp_path / "cache")
    cache = ResultCache(root=root)
    for i in range(N_KEYS):
        cache.store(_key(i), _result(i, traced=True))

    # interleave: a writer re-stores every key while a pruner evicts hard
    targets = [(_writer, (root, 99)), (_pruner, (root, 2 * 1024))]
    errors = _run_processes(targets)
    assert not errors, errors
    _assert_only_whole_entries(root)
    for i in range(N_KEYS):
        result = cache.load(_key(i))
        assert result is None or _matches(result, i)


def _upgrader(root: str, i: int, started, stop, errors) -> None:
    """Store key ``i`` untraced, then upgrade it traced, until the
    reader is done (bounded, so a dead reader cannot hang the test)."""
    cache = ResultCache(root=root)
    for _ in range(20 * READS):
        for traced in (False, True):
            if not cache.store(_key(i), _result(i, traced)):
                errors.put(f"upgrader: store refused for key {i}")
                return
        started.set()
        if stop.is_set():
            return


def _plain_reader(root: str, i: int, started, stop, errors) -> None:
    cache = ResultCache(root=root, mode="readonly")
    try:
        if not started.wait(timeout=120):
            errors.put("plain reader: the upgrader never started")
            return
        for _ in range(5 * READS):
            result = cache.load(_key(i))
            if result is not None and (
                    result.trace is not None
                    or result != _result(i, traced=False)):
                errors.put(f"plain reader: wrong content for key {i}")
                return
    finally:
        stop.set()


def test_untraced_reader_racing_a_traced_upgrade(tmp_path):
    """A plain load racing stores that replace an entry traced and
    untraced by turns is a miss or the exact untraced result, never
    anything else."""
    root = str(tmp_path / "cache")
    ResultCache(root=root).store(_key(0), _result(0, traced=False))
    ctx = multiprocessing.get_context("spawn")
    started, stop = ctx.Event(), ctx.Event()
    errors = _run_processes([(_upgrader, (root, 0, started, stop)),
                             (_plain_reader, (root, 0, started, stop))])
    assert not errors, errors
    _assert_only_whole_entries(root)
    final = ResultCache(root=root).load(_key(0), want_trace=True)
    assert final == _result(0, traced=True)


def _in_thread(fn, *args) -> threading.Thread:
    thread = threading.Thread(target=fn, args=args, daemon=True)
    thread.start()
    return thread


def test_a_store_racing_the_eviction_of_its_key_waits_and_survives(
        tmp_path, monkeypatch):
    """A store of the key being evicted waits for the prune to finish,
    and its entry survives.  Without the lock it publishes after the
    eviction's mtime re-check and before its unlink, which then deletes
    the entry the store just wrote."""
    root = str(tmp_path / "cache")
    cache = ResultCache(root=root)
    cache.store(_key(0), _result(0, traced=False))
    path = cache._path(_key(0))
    unlink = os.unlink
    racers = []

    def racing_unlink(target, *args, **kwargs):
        if target == path and not racers:
            racers.append(_in_thread(ResultCache(root=root).store,
                                     _key(0), _result(0, traced=False)))
            racers[0].join(timeout=0.5)
            racers.append(racers[0].is_alive())
        unlink(target, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", racing_unlink)
    assert cache.prune(max_bytes=0) == 1
    monkeypatch.setattr(os, "unlink", unlink)
    racer, waited = racers
    racer.join(timeout=60)
    assert not racer.is_alive()
    assert waited, "the store published while an eviction was under way"
    _assert_only_whole_entries(root)
    assert cache.load(_key(0)) == _result(0, traced=False), \
        _entry_state(cache, 0)


def test_a_prune_waits_for_a_store_in_progress(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    cache.store(_key(0), _result(0, traced=False))
    removed = []
    with cache._writer_lock(shared=True):      # a store is publishing
        pruner = _in_thread(
            lambda: removed.append(cache.prune(max_bytes=0)))
        pruner.join(timeout=0.3)
        assert pruner.is_alive() and removed == []
    pruner.join(timeout=60)
    assert removed == [1]


def test_stores_do_not_wait_for_one_another(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    with cache._writer_lock(shared=True):      # another store publishing
        writer = _in_thread(cache.store, _key(0),
                            _result(0, traced=True))
        writer.join(timeout=60)
        assert not writer.is_alive()
    assert cache.load(_key(0), want_trace=True) == _result(0, traced=True)
