"""Span tracer with context propagation across threads *and* processes.

A :class:`Trace` is one recording session (typically: one
``Session.sweep`` call, or one serve job).  The active trace and the
current parent span travel in :mod:`contextvars`, so nested ``with
obs.span(...)`` blocks build a parent chain without any plumbing through
call signatures — including across the session -> engine -> cache call
stack, which never mentions tracing.

Cross-process propagation is explicit, because worker processes cannot
share contextvars: :func:`repro.scenarios.engine._run_shard` opens a
*fresh* trace in the worker, runs the shard under it, and ships
``trace.export()`` (plain dicts) back with the results; the coordinator
calls :meth:`Trace.adopt`, which re-numbers the worker's span ids into
the coordinator's id space and re-parents the worker's root spans under
the coordinator's current span — one coherent timeline per sweep.

Span timestamps are ``time.time()`` (epoch seconds): unlike
``perf_counter`` they are comparable across processes, which is what
lets worker spans land on the coordinator's timeline.  Wall-clock reads
are exactly what the determinism linter exists to reject in simulation
code — this module is the one place they belong, carried by the
module-scoped D02 allowlist (``LintConfig.wallclock_modules``), and rule
D06 separately proves no obs value flows back into cache/lockstep keys.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from .metrics import GLOBAL

#: values of ``REPRO_OBS`` that turn observability off
_OFF_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

#: tri-state override set by :func:`set_enabled` (None = follow the env)
_OVERRIDE: Optional[bool] = None
#: cached env parse (reset by :func:`set_enabled`)
_ENV_CACHE: Optional[bool] = None


def enabled() -> bool:
    """The ``REPRO_OBS`` kill switch: on unless the env says off (or a
    test said so via :func:`set_enabled`).  Cached after the first read;
    forked workers inherit the cache, spawned ones re-read the env."""
    global _ENV_CACHE
    if _OVERRIDE is not None:
        return _OVERRIDE
    if _ENV_CACHE is None:
        raw = os.environ.get("REPRO_OBS", "").strip().lower()
        _ENV_CACHE = raw not in _OFF_VALUES
    return _ENV_CACHE


def set_enabled(value: Optional[bool]) -> None:
    """Force observability on/off for this process (``None`` restores
    env-driven behaviour).  Also drops the env cache, so flipping
    ``REPRO_OBS`` between calls is honoured."""
    global _OVERRIDE, _ENV_CACHE
    _OVERRIDE = value
    _ENV_CACHE = None


def now() -> float:
    """Epoch seconds — the one sanctioned wall-clock read for
    observability payloads (receipts, span stamps).  Returns 0.0 when
    observability is off so disabled paths stay clock-free."""
    if not enabled():
        return 0.0
    return time.time()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
@dataclass
class Span:
    """One timed operation on the sweep timeline."""

    name: str
    start: float                       #: epoch seconds
    end: float                         #: epoch seconds
    span_id: int
    parent_id: Optional[int]
    pid: int
    tid: int
    worker: Optional[str] = None       #: shard label for adopted spans
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "pid": self.pid, "tid": self.tid, "worker": self.worker,
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(name=payload["name"], start=payload["start"],
                   end=payload["end"], span_id=payload["span_id"],
                   parent_id=payload["parent_id"], pid=payload["pid"],
                   tid=payload["tid"], worker=payload.get("worker"),
                   attrs=dict(payload.get("attrs") or {}))


class Trace:
    """One recording session: an append-only span list plus the receipt
    the owning sweep attaches at the end (how the serve job layer gets a
    race-free per-job receipt off the shared session)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 0
        self._receipt: Optional[Dict[str, Any]] = None

    @property
    def receipt(self) -> Optional[Dict[str, Any]]:
        """The owning sweep's receipt, set once at sweep end."""
        with self._lock:
            return self._receipt

    @receipt.setter
    def receipt(self, receipt: Optional[Dict[str, Any]]) -> None:
        with self._lock:
            self._receipt = receipt

    def next_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        GLOBAL.counter("repro_spans_recorded_total").inc()

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def export(self) -> List[Dict[str, Any]]:
        """Picklable plain-dict form (the worker -> coordinator wire)."""
        return [span.to_dict() for span in self.spans()]

    def adopt(self, payload: Sequence[Mapping[str, Any]],
              parent_id: Optional[int], worker: Optional[str] = None) -> None:
        """Merge a worker trace in: re-number its span ids into this
        trace's id space and re-parent its roots under ``parent_id``
        (the coordinator span that was current when the shard landed)."""
        if not payload:
            return
        spans = [Span.from_dict(p) for p in payload]
        local_ids = {span.span_id for span in spans}
        with self._lock:
            base = self._next_id
            self._next_id = base + max(local_ids)
            for span in spans:
                span.span_id += base
                if span.parent_id in local_ids:
                    span.parent_id += base
                else:
                    span.parent_id = parent_id
                if worker is not None and span.worker is None:
                    span.worker = worker
                self._spans.append(span)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: the active trace / current parent span (per thread+task by design:
#: each serve job thread records into its own trace)
_TRACE: ContextVar[Optional[Trace]] = ContextVar("repro_obs_trace",
                                                 default=None)
_SPAN: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)


def current_trace() -> Optional[Trace]:
    return _TRACE.get() if enabled() else None


class span:
    """Record a timed span under the current trace: ``with
    obs.span(name, metric=None, **attrs) as attrs: ...``.

    The block gets the span's attribute dict (mutable — set outcome
    fields inside the block), or ``None`` when no trace is active or the
    kill switch is off; then ``span(...)`` is one shared null object and
    the block runs untouched with **zero** clock reads.  ``metric``
    names a histogram that additionally observes the span's duration.
    A span is recorded however its block exits; an exception propagates.
    """

    __slots__ = ("_trace", "_name", "_metric", "_attrs", "_span_id",
                 "_parent_id", "_token", "_start")

    def __new__(cls, name: str, metric: Optional[str] = None,
                **attrs: Any) -> Any:
        tr = _TRACE.get() if enabled() else None
        if tr is None:
            return _NULL_SPAN
        self = object.__new__(cls)
        self._trace = tr
        self._name = name
        self._metric = metric
        self._attrs = attrs
        return self

    def __enter__(self) -> Dict[str, Any]:
        self._span_id = self._trace.next_id()
        self._parent_id = _SPAN.get()
        self._token = _SPAN.set(self._span_id)
        self._start = time.time()
        return self._attrs

    def __exit__(self, *exc_info: Any) -> None:
        end = time.time()
        _SPAN.reset(self._token)
        self._trace.add(Span(self._name, self._start, end, self._span_id,
                             self._parent_id, os.getpid(),
                             threading.get_ident(), attrs=self._attrs))
        if self._metric is not None:
            GLOBAL.histogram(self._metric).observe(end - self._start)


class _NullSpan:
    """What :class:`span` is when nothing records: a no-op block."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


@contextlib.contextmanager
def ensure_trace() -> Iterator[Optional[Trace]]:
    """The ambient trace if one is active (a serve job wrapped this
    sweep), else a fresh trace activated for the block.  Yields ``None``
    when observability is off."""
    if not enabled():
        yield None
        return
    existing = _TRACE.get()
    if existing is not None:
        yield existing
        return
    tr = Trace()
    token = _TRACE.set(tr)
    # a fresh trace has no current span — clear any stale parent id
    # (forked workers inherit the coordinator's contextvars, and a
    # stale id would collide with worker-local ids during adoption)
    span_token = _SPAN.set(None)
    try:
        yield tr
    finally:
        _SPAN.reset(span_token)
        _TRACE.reset(token)


@contextlib.contextmanager
def new_trace() -> Iterator[Optional[Trace]]:
    """Always activate a fresh trace (serve jobs, worker shards) —
    shadows any ambient one for the block."""
    if not enabled():
        yield None
        return
    tr = Trace()
    token = _TRACE.set(tr)
    span_token = _SPAN.set(None)
    try:
        yield tr
    finally:
        _SPAN.reset(span_token)
        _TRACE.reset(token)


def adopt_spans(payload: Sequence[Mapping[str, Any]],
                worker: Optional[str] = None) -> None:
    """Merge a worker's exported spans into the current trace, parented
    under the current span.  No-op without an active trace."""
    tr = _TRACE.get() if enabled() else None
    if tr is None or not payload:
        return
    tr.adopt(payload, parent_id=_SPAN.get(), worker=worker)


# ---------------------------------------------------------------------------
# Worker-side metrics protocol
# ---------------------------------------------------------------------------
def metrics_baseline() -> Optional[Dict[str, Any]]:
    """Snapshot the registry before shard work (forked workers inherit
    the parent's counts; the baseline keeps the shipped delta clean).
    ``None`` when observability is off."""
    if not enabled():
        return None
    return GLOBAL.snapshot()


def metrics_delta(base: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Counter/histogram movement since :func:`metrics_baseline`."""
    if not enabled():
        return {}
    return GLOBAL.diff(base)


def merge_metrics(delta: Optional[Mapping[str, Any]]) -> None:
    """Fold a worker's :func:`metrics_delta` into this process."""
    if not enabled() or not delta:
        return
    GLOBAL.merge(delta)
