"""Server-Sent Events framing: the streaming half of the wire protocol.

One event = a ``event:`` line naming the type, one ``data:`` line
carrying a JSON payload, and a blank line.  The format is deliberately
the plain SSE subset every browser ``EventSource`` and ``curl -N``
understands; both ends here are stdlib (:mod:`http.server` writes it,
:mod:`urllib.request` reads it).

:class:`EventLog` is the server-side buffer behind each stream: a
bounded append-only log with a condition variable so any number of SSE
streams can block on "events past cursor N".  When the bound is hit the
*oldest* events are dropped and every late replay starts with an
explicit ``truncated`` marker frame — a follower can always tell a full
replay from a clipped one.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import obs

#: default per-job event-log bound; at ~1 KiB per lane event this caps a
#: job's replay memory near 4 MiB while keeping every realistic sweep
#: (tier-1 sweeps are tens of lanes) far from truncation
DEFAULT_MAX_EVENTS = 4096


class EventLog:
    """Bounded, append-only event log with blocking cursor reads.

    Cursors are *absolute* event indices (they keep counting across
    drops), so a reader holding cursor ``c`` after truncation learns
    exactly how many events it lost.  ``append`` never blocks on
    readers: overflow evicts from the front immediately.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise ValueError("event log needs room for at least one event")
        self._max_events = max_events
        self._cond = threading.Condition()
        self._events: List[Dict[str, Any]] = []
        self._dropped = 0
        self._closed = False

    def append(self, event: Dict[str, Any]) -> None:
        with self._cond:
            self._events.append(event)
            overflow = len(self._events) - self._max_events
            if overflow > 0:
                del self._events[:overflow]
                self._dropped += overflow
            self._cond.notify_all()
        if overflow > 0:
            obs.counter("repro_sse_events_dropped_total").inc(overflow)

    def close(self) -> None:
        """No more events will arrive; wake every blocked reader."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def dropped(self) -> int:
        """How many events have been evicted from the front so far."""
        with self._cond:
            return self._dropped

    def events_since(self, start: int, timeout: Optional[float] = None
                     ) -> Tuple[int, List[Dict[str, Any]]]:
        """``(next_cursor, batch)`` of events past absolute index
        ``start``; blocks until at least one exists or the log is
        closed.  ``timeout`` bounds one wait; on expiry the (possibly
        empty) batch is returned so callers can emit keep-alives.

        If ``start`` predates the retained window, the batch leads with
        a synthetic ``truncated`` marker naming how many events the
        reader missed ("replay truncated at N").
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._dropped + len(self._events) > start
                or self._closed,
                timeout=timeout)
            end = self._dropped + len(self._events)
            if start >= end:
                return start, []
            batch: List[Dict[str, Any]] = []
            if start < self._dropped:
                batch.append({"event": "truncated",
                              "dropped": self._dropped - start,
                              "next": self._dropped})
                start = self._dropped
            batch.extend(self._events[start - self._dropped:])
            return end, batch


def format_event(event: str, data: Any) -> bytes:
    """One wire-ready SSE frame: ``event`` type + JSON ``data`` payload."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {payload}\n\n".encode("utf-8")


def iter_events(stream) -> Iterator[Dict[str, Any]]:
    """Parse SSE frames from a binary line stream (an open HTTP response).

    Yields one dict per frame: the JSON-decoded ``data`` payload with the
    frame's ``event`` type merged in under ``"event"`` (the payloads here
    never carry a conflicting key).  Comment lines (``:`` prefix) and
    unknown fields are skipped per the SSE spec; the iterator ends when
    the server closes the stream.
    """
    event: Optional[str] = None
    data_lines = []
    for raw in stream:
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if line.startswith(":"):
            continue
        if line == "":
            if data_lines:
                payload = json.loads("\n".join(data_lines))
                if not isinstance(payload, dict):
                    payload = {"data": payload}
                if event is not None:
                    payload.setdefault("event", event)
                yield payload
            event = None
            data_lines = []
            continue
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].lstrip())
