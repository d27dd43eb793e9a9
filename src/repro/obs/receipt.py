"""Run receipts: one JSON provenance record per sweep.

A receipt answers "what exactly produced these numbers, and what did it
cost?" without rerunning anything: the resolved-config content hashes
(the same SHA-256 keys the result cache is addressed by), the code
fingerprint, the cache hit ratio, per-phase wall times that sum to the
sweep's total, the worker count, and artifact paths.  A writable
result cache publishes each receipt under its root
(:meth:`~repro.session.cache.ResultCache.write_receipt`), and the serve
job ``done`` event carries it.

:class:`PhaseClock` carves a sweep into *contiguous* named segments —
``tick(name)`` closes the previous segment as it opens the next, so the
segments partition the timeline exactly and their sum equals the total
by construction (the acceptance test locks this within 10% to allow for
the receipt-assembly tail).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .spans import now

#: bump when the receipt layout changes incompatibly
RECEIPT_SCHEMA = 1


class PhaseClock:
    """Contiguous named wall-time segments over one sweep."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._mark = self._t0
        self._current: Optional[str] = None
        #: accumulated seconds per phase, insertion-ordered
        self.phases: Dict[str, float] = {}
        self.total: Optional[float] = None

    def tick(self, name: str) -> None:
        """Close the current phase (if any) and open ``name``.  A name
        may recur; its segments accumulate.  When no phase is open the
        new one absorbs the gap since the last boundary, so the segments
        always partition ``[t0, stop]`` exactly."""
        mark = time.perf_counter()
        if self._current is not None:
            self.phases[self._current] = (
                self.phases.get(self._current, 0.0) + (mark - self._mark))
            self._mark = mark
        self._current = name

    def stop(self) -> float:
        """Close the open phase and freeze the total (idempotent)."""
        if self.total is None:
            mark = time.perf_counter()
            if self._current is not None:
                self.phases[self._current] = (
                    self.phases.get(self._current, 0.0)
                    + (mark - self._mark))
                self._current = None
            self.total = mark - self._t0
        return self.total


def sweep_id_for(parts: Sequence[str]) -> str:
    """Stable short id for a sweep: SHA-256 over its lane identities
    (cache keys when caching, spec names otherwise)."""
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def build_receipt(*, sweep_id: str, backend: str, workers: Optional[int],
                  specs: Sequence[str], keys: Optional[Sequence[str]],
                  fingerprint: Optional[str],
                  cache_stats: Mapping[str, Any],
                  phases: Mapping[str, float], wall_s: float,
                  counters: Mapping[str, int],
                  lanes: Sequence[Mapping[str, Any]],
                  artifacts: Mapping[str, Optional[str]]) -> Dict[str, Any]:
    """Assemble the receipt dict (schema v1).  Pure data in, pure data
    out — everything JSON-serializable, so the serve layer can embed it
    in the ``done`` event verbatim."""
    return {
        "schema": RECEIPT_SCHEMA,
        "kind": "sweep-receipt",
        "sweep_id": sweep_id,
        "backend": backend,
        "workers": workers,
        "n_lanes": len(lanes),
        "specs": list(specs),
        "keys": list(keys) if keys is not None else None,
        "code_fingerprint": fingerprint,
        "cache": dict(cache_stats),
        "phases": dict(phases),
        "wall_s": wall_s,
        "counters": dict(counters),
        "lanes": [dict(lane) for lane in lanes],
        "artifacts": dict(artifacts),
        "created_unix": now(),
    }


def load_receipt(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
