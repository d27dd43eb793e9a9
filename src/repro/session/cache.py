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
(default ``.repro_cache/``) as one file, ``<key[:2]>/<key>.entry``:

1. the sha256 hex digest of every byte after this line;
2. the header, one line of compact JSON: the run's numbers under
   ``"result"`` (every numeric :class:`RunResult` field by name, plus
   ``cycles``; JSON float text round-trips float64 exactly), the
   controller label, spec name and code fingerprint (human-greppable
   provenance), and the trace manifest of a traced entry;
3. a traced entry's embedded ``trace_*`` waveform arrays as npz bytes;
   an untraced entry ends after its header.

An untraced hit is therefore one small file read and one hash; the zip
is parsed, and NumPy imported, only for ``want_trace=True`` or to store
a traced result.  Corrupt or torn entries fail the digest and read as
misses, never as wrong results; so does an entry whose ``result``
members or their kinds differ from what ``RunResult`` declares now.

The cache is shared by value, not by process: the parallel sharder's
per-lane results are written back individually, so a re-run of an
identical sweep at *any* worker count is served entirely from cache,
bit-identical to the cold run (``tests/session/test_session.py``).

The root also keeps :data:`FINGERPRINT_MEMO`, each fingerprinted
module's AST digest keyed by the hash of its raw bytes, so a fresh
process computes :func:`code_fingerprint` without parsing the tree.
A call with no cache, such as the receipt of a cache-off sweep, keeps
its memo under :func:`default_cache_root`; with caching off, a process
therefore still creates ``.repro_cache/fingerprint.json`` in its
working directory (or the file under ``$REPRO_CACHE_DIR``), much as
Python writes ``__pycache__``.  A writable cache also keeps each
sweep's receipt under ``receipts/`` (:meth:`ResultCache.write_receipt`).

Concurrency contract (the sweep server shares one cache directory
between many worker threads and processes):

* **Readers are lock-free.**  :meth:`ResultCache.load` takes no lock and
  tolerates every in-flight write: an entry is published by one atomic
  ``os.replace``, so a reader sees either no entry, the previous whole
  entry, or the new whole entry -- never a torn or mixed one.
* **Stores share a lock.**  A store publishes its entry while holding
  the advisory lockfile ``<root>/.writer.lock`` *shared*, so stores
  never wait for one another, only for compaction.  Two processes
  storing the same key race benignly: last rename wins, and both wrote
  the same numbers.
* **Compaction is single-writer.**  :meth:`prune` / :meth:`clear` (and
  the trace-strip pass inside prune) hold the same lockfile
  *exclusive*, so two pruners cannot interleave their scan/delete
  cycles, and no store publishes between an eviction's mtime re-check
  and its unlink (one that did would lose the entry it just wrote).
  The re-check itself skips an entry re-stored after the scan (fresh
  mtime), which is all that protects stores where ``fcntl`` is missing
  and the lock is a no-op (``tests/session/test_cache_concurrency.py``).
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
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Tuple,
                    Union)

try:                              # pragma: no cover - platform availability
    import fcntl
except ImportError:               # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .. import obs
from ..scenarios.parallel import encode_config
from ..system import RunResult, SystemConfig

#: bump when the key payload changes; a change to how an entry is laid
#: out on disk takes a new :data:`_ENTRY_SUFFIX` instead, so no old file
#: is ever opened.  A change to ``RunResult`` needs neither: ``system.py``
#: is fingerprinted, so it moves every key, and an entry fetched by an
#: old key reads as a miss (:data:`_RESULT_LAYOUT`).
#: (2: RunResult gained solver_ticks; keys cover the stepping knobs.
#: 3: entries may embed the traced TraceSet; fingerprint covers trace/.
#: 4: RunResult gained the kernel counters events_delivered /
#: clock_edges_simulated / clock_edges_skipped; keys cover ``gating``.
#: 5: the numbers move from the npz into the sidecar's ``result``, and
#: the sidecar's ``sha256`` covers the whole entry)
FORMAT_VERSION = 5

#: the suffix of an entry file (the format-5 layout before it wrote a
#: json and an npz file per key; those are never read)
_ENTRY_SUFFIX = ".entry"

#: subdirectory of the cache root holding sweep receipts
RECEIPTS_DIR = "receipts"

#: cache operating modes (Session's ``cache=`` argument; its ``"off"``
#: is no cache at all)
MODES = ("readwrite", "readonly")

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

    They name the header's ``result`` members, so every numeric field
    is stored by construction, and they fix :data:`_RESULT_LAYOUT`, so
    an entry written for another ``RunResult`` reads as a miss."""
    return tuple(f.name for f in fields(RunResult)
                 if f.type in (kind, kind.__name__))


_FLOAT_FIELDS = _fields_typed(float)
_INT_FIELDS = _fields_typed(int)

#: the header ``result`` this ``RunResult`` implies: member name -> the
#: type ``json.loads`` gives it (float text, int, list).  An entry with
#: another member set or kind was written for another ``RunResult`` --
#: a field added, removed or retyped since -- and reads as a miss.
_RESULT_LAYOUT = {**dict.fromkeys(_FLOAT_FIELDS, float),
                  **dict.fromkeys(_INT_FIELDS, int), "cycles": list}

#: npz member-name prefix for embedded TraceSet arrays
_TRACE_PREFIX = "trace_"

#: what :func:`cache_key` returns: 64 lowercase hex digits
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def is_cache_key(key: str) -> bool:
    """Whether ``key`` has the shape of a :func:`cache_key` digest — so
    it names a file inside the cache root, never a path outside it."""
    return isinstance(key, str) and _KEY_RE.fullmatch(key) is not None


def _npz_bytes(arrays: Mapping[str, Any]) -> bytes:
    import numpy as np
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _encode_entry(header: Mapping[str, Any], blob: bytes = b"") -> bytes:
    """An entry file's bytes: the digest line, then the header line and
    the npz bytes ``blob`` it covers.  ``json.dumps`` escapes every
    control character, so the header holds no raw newline."""
    body = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n" + blob
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _decode_entry(data: bytes) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """``(header, blob)`` of an entry file's bytes, or ``None`` unless
    the digest holds and the header is of this :data:`FORMAT_VERSION`."""
    digest, _, body = data.partition(b"\n")
    if digest != hashlib.sha256(body).hexdigest().encode():
        return None
    text, _, blob = body.partition(b"\n")
    header = json.loads(text)
    if not isinstance(header, dict) \
            or header.get("format") != FORMAT_VERSION:
        return None
    return header, blob


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


#: per-module digest memo under a cache root, outside the entry
#: shards: the sha256 of each module's raw bytes -> its
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
    A ``cache`` lends its own memo (rewritten only if the cache is
    writable); any other call uses the memo under
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
    if cache is not None:
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
                                      memo.encode())
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
    """Persistent one-file-per-key store of :class:`RunResult` entries.

    ``mode``:

    ``"readwrite"``
        Serve hits and write back misses (the default).
    ``"readonly"``
        Serve hits, never touch the disk on a miss — for golden caches
        shared between CI shards or checked into artifact storage.

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
        self._root = str(self.root)
        self.mode = mode
        self.max_bytes = max_bytes
        # Running on-disk size estimate for capped caches: initialised by
        # one directory scan on the first write, then advanced per store,
        # so store() only rescans (via prune) when the cap is actually
        # crossed instead of stat-ing every entry on every write.
        self._size = _Cell()

    # ------------------------------------------------------------------
    @property
    def writable(self) -> bool:
        return self.mode == "readwrite"

    def _path(self, key: str) -> str:
        # a str, not a Path: joining through pathlib costs 20x more, and
        # a cache-hot sweep builds one path per lane
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}{_ENTRY_SUFFIX}"

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
        if not is_cache_key(key):
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
        try:
            with open(self._path(key), "rb") as fh:
                entry = _decode_entry(fh.read())
            if entry is None:
                return None
            header, blob = entry
            trace_manifest = header.get("trace")
            if want_trace and trace_manifest is None:
                return None
            numbers = header["result"]
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
            return RunResult(controller=header["controller"], trace=trace,
                             **numbers)
        except (OSError, ValueError, KeyError, TypeError, EOFError,
                zipfile.BadZipFile):
            # unreadable files, or a header of the wrong shape
            return None

    def store(self, key: str, result: RunResult,
              meta: Optional[Mapping[str, Any]] = None) -> bool:
        """Write ``result`` under ``key``; returns False in read-only
        mode, and for a result with a NaN or infinite number — a
        diverged run is reported to its caller but never served from
        cache.  The write is atomic (tmp file + ``os.replace``), so a
        concurrent reader sees either no entry or a whole one.
        The numbers go to the entry's header; a traced result also
        embeds its :class:`~repro.trace.TraceSet` arrays after it
        (manifest in the header), so traced sweeps can be served from
        cache without re-simulating."""
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
        path = self._path(key)
        numbers: Dict[str, Any] = {
            name: float(getattr(result, name)) for name in _FLOAT_FIELDS}
        numbers.update(
            {name: int(getattr(result, name)) for name in _INT_FIELDS})
        numbers["cycles"] = [int(c) for c in result.cycles]
        header: Dict[str, Any] = {
            "format": FORMAT_VERSION,
            "controller": result.controller,
            "code": code_fingerprint(),
            "meta": dict(meta or {}),
            "result": numbers,
        }
        blob = b""
        if result.trace is not None:
            header["trace"], trace_arrays = result.trace.to_arrays(
                prefix=_TRACE_PREFIX)
            blob = _npz_bytes(trace_arrays)
        data = _encode_entry(header, blob)
        with self._writer_lock(shared=True):
            self._publish(path, data)
        if self.max_bytes is not None:
            total = self._size.add(len(data))
            if total is None:
                # first capped write this process: one scan (covers the
                # entry just written and anything from earlier processes)
                total = self.size_bytes()
                self._size.set(total)
            if total > self.max_bytes:
                self.prune()

    def write_receipt(self, receipt: Mapping[str, Any]) -> str:
        """Publish a sweep's receipt as ``receipts/<sweep_id>.json``
        under the root (atomic replace, like an entry); returns its
        path.  Entry scans never see it."""
        path = self.receipt_path(receipt["sweep_id"])
        # one C-encoded string, one write: json.dump with indent runs the
        # pure-Python encoder, piece by piece
        self._publish(path, json.dumps(receipt, sort_keys=True).encode())
        obs.GLOBAL.counter("repro_receipts_written_total").inc()
        return str(path)

    def receipt_path(self, sweep_id: str) -> Path:
        return self.root / RECEIPTS_DIR / f"{sweep_id}.json"

    @contextlib.contextmanager
    def _writer_lock(self, shared: bool = False):
        """Advisory inter-process lock: compaction (``prune`` /
        ``clear``) holds it exclusive, a store holds it ``shared`` while
        it publishes its entry.  Loads never take it — one atomic
        replace per entry keeps them safe on their own.
        Uses ``fcntl.flock`` on a lockfile inside the cache root (held
        for the duration of the ``with`` block, released even on error);
        on platforms without ``fcntl`` the lock degrades to a no-op:
        pruners no longer serialize, and an eviction racing a store of
        the same key can delete the entry that store just wrote, which
        then reads as a miss.

        Each call opens its own descriptor, so threads of one process
        exclude each other too.  A descriptor kept open and shared would
        not: ``flock`` locks belong to the open file description, so a
        store thread's ``LOCK_SH`` on it would convert a prune thread's
        ``LOCK_EX`` in the same process (the sweep server's job threads)
        instead of waiting for it.  The root is made only when the
        lockfile's open finds it missing."""
        lockfile = os.path.join(self._root, ".writer.lock")
        try:
            fd = os.open(lockfile, os.O_CREAT | os.O_RDWR, 0o644)
        except FileNotFoundError:
            os.makedirs(self._root, exist_ok=True)
            fd = os.open(lockfile, os.O_CREAT | os.O_RDWR, 0o644)
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

    def _publish(self, path: Union[str, Path], data: bytes) -> None:
        """:meth:`_atomic_write` ``data`` to ``path``, making its
        directory when the temp file's open finds it missing: once per
        shard and cache, or again after someone removed it, instead of a
        ``mkdir`` per store."""
        try:
            self._atomic_write(path, data)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self._atomic_write(path, data)

    @staticmethod
    def _atomic_write(path: Union[str, Path], data: bytes) -> None:
        """Write ``data`` through a fresh temp file beside ``path``, then
        replace; the temp file is removed if either step fails.

        The temp file is created ``0o666`` (``mkstemp`` would make it
        ``0o600``), so the umask decides the file's mode, as it does for
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
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def _entry_paths(self) -> List[Path]:
        """Every entry file on disk, in path order: glob order is
        filesystem-dependent, and mtime ties between entries would
        otherwise break in directory order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{_ENTRY_SUFFIX}"))

    def keys(self) -> Iterator[str]:
        """Keys of every entry currently on disk."""
        for path in self._entry_paths():
            yield path.stem

    def __len__(self) -> int:
        return len(self._entry_paths())

    def size_bytes(self) -> int:
        """Total on-disk size of every entry file."""
        return sum(size for _, _, size in self._entries())

    def _entries(self) -> List[Tuple[float, str, int]]:
        """Every entry as ``(mtime, key, size_bytes)``."""
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue   # concurrently evicted
            entries.append((stat.st_mtime, path.stem, stat.st_size))
        return entries

    def _strip_trace(self, key: str) -> int:
        """Drop the embedded trace payload from one entry, keeping the
        scalar numbers (the entry reads exactly like an untraced write:
        plain loads hit, ``want_trace=True`` loads miss, and a traced
        re-run upgrades it again): the payload and the manifest go, and
        the entry is signed again — only one whose digest held, so a
        damaged entry is never re-signed.  The entry's mtime is
        preserved — a strip is reclamation, not a user write, so it must
        not make the entry look recently used.
        Returns the bytes reclaimed (0 for untraced, missing, damaged,
        or unreadable entries).  Only called from
        :meth:`prune`, i.e. under the single-writer lockfile; the
        rewrite itself stays atomic-replace so lock-free readers are
        unaffected."""
        path = self._path(key)
        try:
            stat = os.stat(path)
            with open(path, "rb") as fh:
                entry = _decode_entry(fh.read())
            if entry is None or entry[0].get("trace") is None:
                return 0
            header = entry[0]
            del header["trace"]
            data = _encode_entry(header)
            self._atomic_write(path, data)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            return max(0, stat.st_size - len(data))
        except (OSError, ValueError):
            return 0   # unreadable entries are pass two's problem

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Shrink the store under ``max_bytes`` (defaults to the cache's
        own cap), oldest mtime first, in two passes: first drop trace
        payloads from entries (:meth:`_strip_trace` — the scalar results
        survive), then, only if still over the cap, evict whole entries.
        Returns the number of whole entries removed (stripped entries
        still count as present).  A ``readonly`` cache never prunes.

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
                path = self._path(key)
                try:
                    if os.stat(path).st_mtime > mtime:
                        continue   # re-stored since the scan: fresh again
                    os.unlink(path)
                except OSError:
                    total -= size    # concurrently evicted elsewhere
                    continue
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
            for path in self._entry_paths():
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            self._size.set(None)
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, mode={self.mode!r})"
