"""Content-addressed result cache: hash (scenario, code version) -> RunResult.

A :class:`~repro.system.ScenarioSpec` is a pure description, so a run's
headline measurements are a pure function of

1. the **resolved** :class:`~repro.system.SystemConfig` (every spec
   override and sweep default, expanded — two specs that expand to the
   same config are the same scenario and share one cache entry),
2. the measurement knobs that change the reported numbers (``settle``,
   ``backend``, ``track_energy`` — the backends are cross-validated, not
   bit-identical, so they cache separately; ``trace`` never changes the
   numbers and is normalised out of the key — a traced run *upgrades*
   the shared entry with its waveform payload instead of forking it),
3. a **code-version fingerprint** of the simulation modules (kernel,
   analog models, controllers, scenario engine) — any solver edit
   invalidates every prior entry.

:func:`cache_key` hashes that tuple into a stable hex digest;
:class:`ResultCache` stores one entry per key under a cache root
(default ``.repro_cache/``, shard ``<key[:2]>/``) as two files:

* ``<key>.json`` — the sidecar: the run's numbers under ``"result"``
  (every numeric :class:`RunResult` field by name, plus ``cycles``;
  JSON float text round-trips float64 exactly), the controller label,
  spec name and code fingerprint (human-greppable provenance), the
  trace manifest of a traced entry, and ``"sha256"`` over the whole
  entry: the canonical JSON of the sidecar without that field, then
  the npz bytes;
* ``<key>.npz`` — only the embedded ``trace_*`` waveform arrays (an
  empty archive for an untraced entry).

An untraced hit is therefore one small JSON read plus a hash of the
npz bytes; the zip is parsed, and NumPy imported, only for
``want_trace=True`` or to store a traced result.  Corrupt,
torn, or half-written entries fail the digest and read as misses,
never as wrong results; so does an entry whose ``result`` members or
their kinds differ from what ``RunResult`` declares now.

The cache is shared by value, not by process: the parallel sharder's
per-lane results are written back individually, so a re-run of an
identical sweep at *any* worker count is served entirely from cache,
bit-identical to the cold run (``tests/session/test_session.py``).

The root also keeps :data:`FINGERPRINT_MEMO`, each fingerprinted
module's AST digest keyed by the hash of its raw bytes, so a fresh
process computes :func:`code_fingerprint` without parsing the tree.
A call with no readable cache, such as the receipt of a cache-off
sweep, keeps its memo under :func:`default_cache_root`; with caching
off, a process therefore still creates ``.repro_cache/fingerprint.json``
in its working directory (or the file under ``$REPRO_CACHE_DIR``), much
as Python writes ``__pycache__``.

Concurrency contract (the sweep server shares one cache directory
between many worker threads and processes):

* **Readers are lock-free.**  :meth:`ResultCache.load` takes no lock and
  tolerates every in-flight write: entries are published with atomic
  ``os.replace`` renames, so a reader sees either no entry, the previous
  whole entry, or the new whole entry — never a torn file.  A reader
  that catches an entry between its npz and json halves (they are
  replaced npz-first) sees a digest mismatch and a *miss*, never a
  wrong result.
* **Stores share a lock.**  A store publishes its pair while holding
  the advisory lockfile ``<root>/.writer.lock`` *shared*, so stores
  never wait for one another, only for compaction.  Two processes
  storing the same key race benignly: last rename wins, and both wrote
  the same numbers.  A traced and an untraced store of one key can
  interleave so that their halves end up mixed; the pair then reads as
  a miss, and the store whose sidecar landed last reads it back and
  publishes again, so the entry is whole once the stores return.  Only
  a store that dies between its two renames leaves a mixed pair behind,
  a miss until the next store of that key.
* **Compaction is single-writer.**  :meth:`prune` / :meth:`clear` (and
  the trace-strip pass inside prune) hold the same lockfile
  *exclusive*, so two pruners cannot interleave their scan/delete
  cycles, and no store publishes between an eviction's two unlinks
  (one that did could verify its pair and return before the second
  unlink, leaving a sidecar with no npz).  Eviction also re-checks each
  entry's mtime right before unlinking, so an entry re-stored after the
  scan (fresh mtime) is skipped where ``fcntl`` is missing and the lock
  is a no-op (``tests/session/test_cache_concurrency.py``).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import threading
import zipfile
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

try:                              # pragma: no cover - platform availability
    import fcntl
except ImportError:               # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .. import obs
from ..scenarios.parallel import encode_config
from ..system import RunResult, SystemConfig

#: bump when the cache's own encoding changes: the key payload or how
#: an entry is laid out on disk.  A change to ``RunResult`` needs no
#: bump: ``system.py`` is fingerprinted, so it moves every key, and an
#: entry fetched by an old key reads as a miss (:data:`_RESULT_LAYOUT`).
#: (2: RunResult gained solver_ticks; keys cover the stepping knobs.
#: 3: entries may embed the traced TraceSet; fingerprint covers trace/.
#: 4: RunResult gained the kernel counters events_delivered /
#: clock_edges_simulated / clock_edges_skipped; keys cover ``gating``.
#: 5: the numbers move from the npz into the sidecar's ``result``, and
#: the sidecar's ``sha256`` covers the whole entry)
FORMAT_VERSION = 5

#: cache operating modes (Session's ``cache=`` argument)
MODES = ("readwrite", "readonly", "off")

#: default on-disk location, relative to the working directory
DEFAULT_CACHE_DIR = ".repro_cache"

#: entries under ``src/repro/`` whose source participates in the code
#: fingerprint — everything a RunResult's numbers *or stored waveforms*
#: depend on (``trace`` shapes the cached TraceSet payload).  Metrics,
#: experiments, STG, and the session layer itself are excluded: they
#: post-process or orchestrate, so editing them cannot change results.
FINGERPRINT_PATHS = ("system.py", "sim", "analog", "digital", "a2a",
                     "control", "scenarios", "trace")

def _fields_typed(kind: type) -> Tuple[str, ...]:
    """``RunResult``'s fields annotated ``kind``, in declaration order.

    They name the sidecar's ``result`` members, so every numeric field
    is stored by construction, and they fix :data:`_RESULT_LAYOUT`, so
    an entry written for another ``RunResult`` reads as a miss."""
    return tuple(f.name for f in fields(RunResult)
                 if f.type in (kind, kind.__name__))


_FLOAT_FIELDS = _fields_typed(float)
_INT_FIELDS = _fields_typed(int)

#: the sidecar ``result`` this ``RunResult`` implies: member name -> the
#: type ``json.loads`` gives it (float text, int, list).  An entry with
#: another member set or kind was written for another ``RunResult`` --
#: a field added, removed or retyped since -- and reads as a miss.
_RESULT_LAYOUT = {**dict.fromkeys(_FLOAT_FIELDS, float),
                  **dict.fromkeys(_INT_FIELDS, int), "cycles": list}

#: npz member-name prefix for embedded TraceSet arrays
_TRACE_PREFIX = "trace_"

#: what :func:`cache_key` returns: 64 lowercase hex digits
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def _read_or_none(path: Path) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def is_cache_key(key: str) -> bool:
    """Whether ``key`` has the shape of a :func:`cache_key` digest — so
    it names a file inside the cache root, never a path outside it."""
    return isinstance(key, str) and _KEY_RE.fullmatch(key) is not None


def _npz_bytes(arrays: Mapping[str, Any]) -> bytes:
    import numpy as np
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


#: the npz half of an untraced entry: the 22-byte empty zip archive
#: (end-of-central-directory record only), byte for byte what
#: ``_npz_bytes({})`` writes.  A literal, so that storing or serving an
#: untraced entry never imports NumPy.
_EMPTY_NPZ = b"PK\x05\x06" + bytes(18)

#: how often a store republishes a pair that a concurrent store of the
#: same key mixed (see :meth:`ResultCache._write_pair`)
_PUBLISH_ATTEMPTS = 8


def _entry_digest(sidecar: Mapping[str, Any], blob: bytes) -> str:
    """sha256 over the canonical JSON of ``sidecar`` (without its
    ``sha256`` member) and the npz bytes ``blob``."""
    body = {name: value for name, value in sidecar.items()
            if name != "sha256"}
    digest = hashlib.sha256(json.dumps(
        body, sort_keys=True, separators=(",", ":")).encode())
    digest.update(b"\0")
    digest.update(blob)
    return digest.hexdigest()


def module_fingerprint(source: str) -> str:
    """Digest of one module's *behaviour-relevant* source (16 hex chars).

    The module is parsed and hashed as its AST dump with every docstring
    stripped, so edits that cannot change simulation results — comments,
    whitespace, blank lines, docstrings — keep the digest (and therefore
    every cache key) stable, while any real code change produces a new
    one.  Unparseable source falls back to hashing the raw text.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        payload = source.encode()
    else:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                del body[0]
        payload = ast.dump(tree, include_attributes=False).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def default_cache_root() -> str:
    """The cache root when none is named: ``$REPRO_CACHE_DIR``, else
    :data:`DEFAULT_CACHE_DIR` in the working directory."""
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or DEFAULT_CACHE_DIR


#: per-module digest memo under a cache root, outside the ``*/*.json``
#: entry glob: the sha256 of each module's raw bytes -> its
#: :func:`module_fingerprint`, so a fresh process hashes files instead
#: of parsing them
FINGERPRINT_MEMO = "fingerprint.json"


class _Cell:
    """One optional value behind one lock: the process's code
    fingerprint, or a capped cache's running on-disk byte count (the
    server's job threads share one cache; the flock in ``_writer_lock``
    is inter-process and only orders stores against compaction)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: Any = None

    def get(self) -> Any:
        with self._lock:
            return self._value

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value

    def setdefault(self, value: Any) -> Any:
        """Set an empty cell; the cell's value either way."""
        with self._lock:
            if self._value is None:
                self._value = value
            return self._value

    def add(self, amount: int) -> Optional[int]:
        """Advance a set count; the new count, or ``None`` if empty."""
        with self._lock:
            if self._value is not None:
                self._value += amount
            return self._value


_FINGERPRINT = _Cell()


def code_fingerprint(cache: Optional["ResultCache"] = None) -> str:
    """Hash the source of every simulation module (16 hex chars).

    Computed once per process from the installed ``repro`` package's
    ``.py`` files; any code edit to the kernel, analog models,
    controllers, or scenario engine yields a new fingerprint and
    therefore all-new cache keys.  Each module contributes its
    :func:`module_fingerprint` — the docstring-stripped AST digest — so
    comment-only and docstring-only edits do *not* invalidate the cache.

    Only the call that computes the value reads a
    :data:`FINGERPRINT_MEMO`, which supplies the digest of every module
    whose raw bytes it has seen, and rewrites it when the tree moved.
    A readable ``cache`` lends its own memo (rewritten only if the cache
    is writable); any other call uses the memo under
    :func:`default_cache_root`.  A damaged or unwritable memo only costs
    the parse; no memo changes the value.
    Two threads that both find no value both compute it, outside any
    lock; the tree hashes the same either way, and the first value stays.
    """
    value = _FINGERPRINT.get()
    if value is None:
        value = _FINGERPRINT.setdefault(_compute_fingerprint(cache))
    return value


code_fingerprint.cache_clear = (  # type: ignore[attr-defined]
    lambda: _FINGERPRINT.set(None))


def _compute_fingerprint(cache: Optional["ResultCache"]) -> str:
    this_module = Path(__file__).resolve()
    package_root = this_module.parent.parent
    if cache is not None and cache.readable:
        root, writable = cache.root, cache.writable
    else:
        root, writable = Path(default_cache_root()), True
    header = {
        # AST dumps differ across Python versions, and an edit to this
        # module may change the stripping rules
        "cache_tag": sys.implementation.cache_tag,
        "rules": hashlib.sha256(this_module.read_bytes()).hexdigest(),
    }
    known = _read_memo(root / FINGERPRINT_MEMO, header)
    seen: Dict[str, str] = {}
    digest = hashlib.sha256()
    for entry in FINGERPRINT_PATHS:
        path = package_root / entry
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for source in files:
            raw = source.read_bytes()
            raw_hash = hashlib.sha256(raw).hexdigest()
            module = known.get(raw_hash)
            if module is None:
                module = module_fingerprint(raw.decode("utf-8"))
            seen[raw_hash] = module
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(module.encode())
            digest.update(b"\0")
    if writable and seen != known:
        memo = json.dumps(dict(header, modules=seen), sort_keys=True)
        try:
            root.mkdir(parents=True, exist_ok=True)
            ResultCache._atomic_write(root / FINGERPRINT_MEMO,
                                      lambda fh: fh.write(memo.encode()))
        except OSError:
            pass   # the memo only spares the next process a parse
    return digest.hexdigest()[:16]


def _read_memo(path: Path, header: Mapping[str, str]) -> Dict[str, str]:
    """The memo's raw-hash -> digest map, or ``{}`` when the file is
    missing, unreadable, malformed, or written under another header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(stored, dict) or any(
            stored.get(name) != value for name, value in header.items()):
        return {}
    modules = stored.get("modules")
    if not isinstance(modules, dict) or not all(
            isinstance(v, str) for v in modules.values()):
        return {}
    return modules


def cache_key(config: SystemConfig, *, settle: Optional[float] = None,
              backend: str = "vector", track_energy: bool = True,
              fingerprint: Optional[str] = None) -> str:
    """The content address of one scenario run (SHA-256 hex digest).

    ``config`` is the fully resolved :class:`SystemConfig` (spec
    overrides and sweep defaults already applied); ``trace`` is
    normalised out — it keeps waveforms but does not change the
    measured numbers.
    """
    encoded = encode_config(config)
    encoded["trace"] = False
    payload = {
        "format": FORMAT_VERSION,
        "config": encoded,
        "settle": settle,
        "backend": backend,
        "track_energy": bool(track_energy),
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Persistent npz/json store of :class:`RunResult` entries by key.

    ``mode``:

    ``"readwrite"``
        Serve hits and write back misses (the default).
    ``"readonly"``
        Serve hits, never touch the disk on a miss — for golden caches
        shared between CI shards or checked into artifact storage.
    ``"off"``
        Never read, never write (a disabled cache object; sessions
        usually represent this state as ``cache=None`` instead).

    ``max_bytes`` caps the on-disk size: every write prunes the store
    back under the cap in two passes, oldest-modification-first (an LRU
    approximation — loads do not touch mtimes, so "oldest" means
    least-recently *written*).  Pass one drops embedded trace payloads
    from entries — the scalar numbers survive, ``want_trace=True``
    loads of a stripped entry become misses (and a traced re-run
    re-upgrades it) — and only if the store is still over the cap does
    pass two evict whole entries.  Waveforms dominate entry sizes by
    ~100x, so capped caches degrade to scalar-only before losing
    results entirely.  ``None`` means unbounded, the historical
    behaviour.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 mode: str = "readwrite",
                 max_bytes: Optional[int] = None):
        if mode not in MODES:
            raise ValueError(
                f"cache mode must be one of {MODES}, got {mode!r}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes cannot be negative")
        self.root = Path(root)
        self.mode = mode
        self.max_bytes = max_bytes
        # Running on-disk size estimate for capped caches: initialised by
        # one directory scan on the first write, then advanced per store,
        # so store() only rescans (via prune) when the cap is actually
        # crossed instead of stat-ing every entry on every write.
        self._size = _Cell()

    # ------------------------------------------------------------------
    @property
    def readable(self) -> bool:
        return self.mode in ("readwrite", "readonly")

    @property
    def writable(self) -> bool:
        return self.mode == "readwrite"

    def _paths(self, key: str) -> tuple:
        shard = self.root / key[:2]
        return shard / f"{key}.json", shard / f"{key}.npz"

    # ------------------------------------------------------------------
    def load(self, key: str,
             want_trace: bool = False) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        Missing, truncated, or otherwise unreadable entries are misses —
        the caller recomputes and (in ``readwrite`` mode) overwrites.  So
        is a ``key`` that is not 64 lowercase hex digits: it never names
        a path, inside the root or outside it.

        ``want_trace=True`` additionally requires the entry to carry the
        run's waveforms: an entry written by an untraced run reads as a
        miss (the caller re-simulates with tracing and the write-back
        upgrades the entry — the key is shared, the scalar numbers are
        identical either way).  ``want_trace=False`` never attaches a
        stored trace, so a hit is bit-identical to a fresh untraced run.
        """
        if not self.readable or not is_cache_key(key):
            return None
        with obs.span("cache.load", key=key[:12],
                      metric="repro_cache_load_seconds") as sp:
            result = self._load_entry(key, want_trace)
            outcome = "hit" if result is not None else "miss"
            if sp is not None:
                sp["outcome"] = outcome
            obs.counter("repro_cache_load_total", outcome=outcome).inc()
        return result

    def _load_entry(self, key: str,
                    want_trace: bool = False) -> Optional[RunResult]:
        meta_path, npz_path = self._paths(key)
        try:
            with open(meta_path, "rb") as fh:
                meta = json.loads(fh.read())
            if not isinstance(meta, dict) \
                    or meta.get("format") != FORMAT_VERSION:
                return None
            trace_manifest = meta.get("trace")
            if want_trace and trace_manifest is None:
                return None
            with open(npz_path, "rb") as fh:
                blob = fh.read()
            if meta.get("sha256") != _entry_digest(meta, blob):
                return None
            numbers = meta["result"]
            if not isinstance(numbers, dict) or {
                    name: type(value) for name, value in numbers.items()
            } != _RESULT_LAYOUT:
                return None
            numbers["cycles"] = [int(c) for c in numbers["cycles"]]
            trace = None
            if want_trace:
                import numpy as np

                from ..trace import TraceSet
                with np.load(io.BytesIO(blob)) as data:
                    trace = TraceSet.from_arrays(trace_manifest, data,
                                                 prefix=_TRACE_PREFIX)
            return RunResult(controller=meta["controller"], trace=trace,
                             **numbers)
        except (OSError, ValueError, KeyError, TypeError, EOFError,
                zipfile.BadZipFile):
            # unreadable files, or a sidecar of the wrong shape
            return None

    def store(self, key: str, result: RunResult,
              meta: Optional[Mapping[str, Any]] = None) -> bool:
        """Write ``result`` under ``key``; returns False in read-only
        (or off) mode, and for a result with a NaN or infinite number —
        a diverged run is reported to its caller but never served from
        cache.  Writes are atomic (tmp file + ``os.replace``), so a
        concurrent reader sees either no entry or a whole one.
        The numbers go to the json sidecar; a traced result also embeds
        its :class:`~repro.trace.TraceSet` arrays in the npz (manifest in
        the sidecar), so traced sweeps can be served from cache without
        re-simulating."""
        if not self.writable or not all(
                math.isfinite(getattr(result, f)) for f in _FLOAT_FIELDS):
            return False
        with obs.span("cache.store", key=key[:12],
                      traced=result.trace is not None,
                      metric="repro_cache_store_seconds"):
            self._store_entry(key, result, meta)
        obs.counter("repro_cache_store_total").inc()
        return True

    def _store_entry(self, key: str, result: RunResult,
                     meta: Optional[Mapping[str, Any]]) -> None:
        meta_path, npz_path = self._paths(key)
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        numbers: Dict[str, Any] = {
            name: float(getattr(result, name)) for name in _FLOAT_FIELDS}
        numbers.update(
            {name: int(getattr(result, name)) for name in _INT_FIELDS})
        numbers["cycles"] = [int(c) for c in result.cycles]
        payload: Dict[str, Any] = {
            "format": FORMAT_VERSION,
            "controller": result.controller,
            "code": code_fingerprint(),
            "meta": dict(meta or {}),
            "result": numbers,
        }
        blob = _EMPTY_NPZ
        if result.trace is not None:
            payload["trace"], trace_arrays = result.trace.to_arrays(
                prefix=_TRACE_PREFIX)
            blob = _npz_bytes(trace_arrays)
        with self._writer_lock(shared=True):
            self._write_pair(meta_path, npz_path, payload, blob)
        if self.max_bytes is not None:
            try:
                added = meta_path.stat().st_size + npz_path.stat().st_size
            except OSError:
                added = 0    # concurrently evicted; next prune rescans
            total = self._size.add(added)
            if total is None:
                # first capped write this process: one scan (covers the
                # entry just written and anything from earlier processes)
                total = self.size_bytes()
                self._size.set(total)
            if total > self.max_bytes:
                self.prune()

    @contextlib.contextmanager
    def _writer_lock(self, shared: bool = False):
        """Advisory inter-process lock: compaction (``prune`` /
        ``clear``) holds it exclusive, a store holds it ``shared`` while
        it publishes its pair.  Loads never take it — they are safe
        under the atomic-replace protocol on their own.
        Uses ``fcntl.flock`` on a lockfile inside the cache root (held
        for the duration of the ``with`` block, released even on error;
        each call opens its own descriptor, so threads of one process
        exclude each other too); on platforms without ``fcntl`` the lock
        degrades to a no-op: pruners no longer serialize, and an
        eviction racing a store of the same key can leave half an entry
        behind, which reads as a miss."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".writer.lock",
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _write_pair(self, meta_path: Path, npz_path: Path,
                    sidecar: Dict[str, Any], blob: bytes) -> None:
        """Publish one entry: the npz first, then the sidecar carrying
        the digest over both, each an atomic replace.

        A concurrent store of the same key may replace the npz between
        the two renames, leaving this sidecar over another store's npz.
        Only the store whose sidecar landed last can see that for good,
        so it reads the pair back and publishes again until the halves
        match (at most :data:`_PUBLISH_ATTEMPTS` times).  A pair is left
        mixed only while some store is between its renames, or after
        one died there."""
        sidecar["sha256"] = _entry_digest(sidecar, blob)
        text = json.dumps(sidecar, sort_keys=True, indent=1).encode()
        for _ in range(_PUBLISH_ATTEMPTS):
            self._atomic_write(npz_path, lambda fh: fh.write(blob))
            self._atomic_write(meta_path, lambda fh: fh.write(text))
            if _read_or_none(meta_path) != text:
                return   # a later sidecar landed: its store checks
            if _read_or_none(npz_path) == blob:
                return

    @staticmethod
    def _atomic_write(path: Path, write) -> None:
        """Write through a fresh temp file beside ``path``, then replace.

        The temp file is created ``0o666`` (``mkstemp`` would make it
        ``0o600``), so the umask decides the entry's mode, as it does for
        the cache's directories and lock file."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(
            os, "O_BINARY", 0)
        while True:
            tmp = f"{path}.{os.urandom(6).hex()}"
            try:
                fd = os.open(tmp, flags, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every complete entry currently on disk."""
        if not self.root.is_dir():
            return
        for meta_path in sorted(self.root.glob("*/*.json")):
            if meta_path.with_suffix(".npz").exists():
                yield meta_path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total on-disk size of every entry file (json + npz)."""
        return sum(size for _, _, size in self._entries())

    def _entries(self) -> List[Tuple[float, str, int]]:
        """Every complete entry as ``(mtime, key, size_bytes)``."""
        entries = []
        if not self.root.is_dir():
            return entries
        # sorted: glob order is filesystem-dependent, and mtime ties
        # between entries would otherwise break in directory order
        for meta_path in sorted(self.root.glob("*/*.json")):
            npz_path = meta_path.with_suffix(".npz")
            try:
                meta_stat = meta_path.stat()
                npz_stat = npz_path.stat()
            except OSError:
                continue   # half-written or concurrently evicted
            entries.append((max(meta_stat.st_mtime, npz_stat.st_mtime),
                            meta_path.stem,
                            meta_stat.st_size + npz_stat.st_size))
        return entries

    def _strip_trace(self, key: str) -> int:
        """Drop the embedded trace payload from one entry, keeping the
        scalar numbers (the entry reads exactly like an untraced write:
        plain loads hit, ``want_trace=True`` loads miss, and a traced
        re-run upgrades it again): the npz becomes an empty archive, the
        manifest goes, and the digest is recomputed — only for an entry
        whose digest held, so a damaged entry is never re-signed.  The
        entry's mtime is preserved — a strip is reclamation, not a user
        write, so it must not make the entry look recently used.
        Returns the bytes reclaimed (0 for untraced, missing, damaged,
        or unreadable entries).  Only called from
        :meth:`prune`, i.e. under the single-writer lockfile; the
        rewrite itself stays atomic-replace so lock-free readers are
        unaffected."""
        meta_path, npz_path = self._paths(key)
        try:
            with open(meta_path, "rb") as fh:
                meta = json.loads(fh.read())
            if not isinstance(meta, dict) \
                    or meta.get("format") != FORMAT_VERSION \
                    or meta.get("trace") is None:
                return 0
            meta_stat = meta_path.stat()
            npz_stat = npz_path.stat()
            with open(npz_path, "rb") as fh:
                if meta.get("sha256") != _entry_digest(meta, fh.read()):
                    return 0
            del meta["trace"]
            self._write_pair(meta_path, npz_path, meta, _EMPTY_NPZ)
            os.utime(npz_path, (npz_stat.st_atime, npz_stat.st_mtime))
            os.utime(meta_path, (meta_stat.st_atime, meta_stat.st_mtime))
            return max(0, meta_stat.st_size + npz_stat.st_size
                       - meta_path.stat().st_size - npz_path.stat().st_size)
        except (OSError, ValueError):
            return 0   # unreadable entries are pass two's problem

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Shrink the store under ``max_bytes`` (defaults to the cache's
        own cap), oldest mtime first, in two passes: first drop trace
        payloads from entries (:meth:`_strip_trace` — the scalar results
        survive), then, only if still over the cap, evict whole entries.
        Returns the number of whole entries removed (stripped entries
        still count as present).  A ``readonly``/``off`` cache never
        prunes.

        Concurrency: the whole pass runs under the single-writer
        lockfile (two pruners serialize), and every eviction re-checks
        the entry's mtime immediately before unlinking — a concurrent
        ``store`` refreshes the mtime, so an entry re-written after the
        scan is no longer "oldest" and is skipped rather than deleted
        mid-store."""
        if not self.writable:
            return 0
        limit = max_bytes if max_bytes is not None else self.max_bytes
        if limit is None:
            return 0
        with self._writer_lock():
            return self._prune_locked(limit)

    def _prune_locked(self, limit: int) -> int:
        entries = sorted(self._entries())
        total = sum(size for _, _, size in entries)
        for _mtime, key, _size in entries:
            if total <= limit:
                break
            total -= self._strip_trace(key)
        removed = 0
        if total > limit:
            # re-scan: pass one rewrote entry files and their sizes
            entries = sorted(self._entries())
            total = sum(size for _, _, size in entries)
            for mtime, key, size in entries:
                if total <= limit:
                    break
                meta_path, npz_path = self._paths(key)
                try:
                    current = max(meta_path.stat().st_mtime,
                                  npz_path.stat().st_mtime)
                except OSError:
                    total -= size    # concurrently evicted elsewhere
                    continue
                if current > mtime:
                    # re-stored since the scan: fresh again, not evictable
                    continue
                for path in (meta_path, npz_path):
                    try:
                        path.unlink()
                    except OSError:
                        pass
                total -= size
                removed += 1
        self._size.set(total)   # the scan just measured the truth
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.  Runs
        under the single-writer lockfile like :meth:`prune` (a clear is
        compaction to zero)."""
        removed = 0
        with self._writer_lock():
            for key in list(self.keys()):
                meta_path, npz_path = self._paths(key)
                for path in (meta_path, npz_path):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                removed += 1
            self._size.set(None)
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, mode={self.mode!r})"
