"""In-flight cache-key registry: compute each unique config once.

The content-addressed cache dedupes *completed* work; this registry
dedupes work that is still running.  When two concurrent
:meth:`repro.session.Session.sweep` calls (the sweep server's job
threads) both miss the cache on the same key, the first to
:meth:`claim` it becomes the **owner** and simulates; the other gets the
owner's event back, waits for it, and re-reads the entry the owner wrote
— so overlapping grids submitted by independent clients collapse to a
single simulation per unique config.

The registry is purely in-process (``threading``): cross-process dedupe
still happens through the on-disk cache, just without the in-flight
window.  Claims are always released in ``finally`` blocks by the owner
(success or failure), so waiters never deadlock; a waiter that wakes to
a still-missing entry (the owner failed, or the cache is not writable)
falls back to computing the lane itself.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class InFlightRegistry:
    """Key -> owner-completion event map with atomic claim semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: Dict[str, threading.Event] = {}

    def claim(self, key: str) -> Optional[threading.Event]:
        """Try to become the owner of ``key``.

        Returns ``None`` when the claim succeeded — the caller must
        compute the result and call :meth:`release` when the cache entry
        is published (or the attempt failed).  Otherwise returns the
        current owner's :class:`threading.Event` to wait on.
        """
        event = threading.Event()
        with self._lock:
            owner = self._claims.setdefault(key, event)
        return None if owner is event else owner

    def release(self, key: str) -> None:
        """Drop the claim on ``key`` and wake every waiter.  Idempotent:
        releasing an unclaimed key is a no-op (the owner's ``finally``
        and its per-lane landing hook may both call this)."""
        with self._lock:
            event = self._claims.pop(key, None)
        if event is not None:
            event.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._claims)
