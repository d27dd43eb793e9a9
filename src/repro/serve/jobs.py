"""Job lifecycle for the sweep server.

A :class:`Job` is one submitted sweep: its specs, a *bounded* event log
(one ``lane`` event per landed scenario plus one terminal ``done``/
``failed`` event, buffered in an :class:`~repro.serve.sse.EventLog`),
and progress counters guarded by the job's own lock.  Events are never
mutated after append; a follower that connects while the whole log is
still retained replays exactly the sequence a live follower saw, and
one that connects after eviction gets an explicit ``truncated`` marker
first — never a silently clipped replay.

:class:`JobManager` owns the worker pool.  Each job runs
``session.sweep(..., on_result=...)`` on one pool thread; per-lane
concurrency inside a job is the session's own ``workers`` setting, and
cross-job dedupe of identical uncached configs is the session's
in-flight registry — the manager adds nothing to the concurrency story
beyond "jobs run in parallel against one shared session".

Job ``defaults`` are merged *below* each spec's overrides before
submission (the same layering :class:`~repro.session.Session` applies
to its own ``defaults``), so the enumerated configs — and therefore the
cache keys — match an inline ``Session(defaults=...)`` sweep.
"""

from __future__ import annotations

import secrets
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Sequence

from .. import obs
from ..scenarios.spec import ScenarioSpec
from ..session import Session
from .protocol import JobOptions
from .sse import DEFAULT_MAX_EVENTS, EventLog

#: job lifecycle states, in order
STATES = ("queued", "running", "done", "failed")

#: events that end an SSE stream (the job can produce nothing after them)
TERMINAL_EVENTS = ("done", "failed")

#: finished jobs kept for status polls and event replays; past this many
#: the oldest finished job is forgotten and its id answers 404
MAX_FINISHED_JOBS = 64


class Job:
    """One submitted sweep: bounded event log + locked progress state."""

    def __init__(self, specs: Sequence[ScenarioSpec], options: JobOptions,
                 max_events: int = DEFAULT_MAX_EVENTS):
        self.id = secrets.token_hex(8)
        self.specs = list(specs)
        self.options = options
        # wall-clock submission stamp, reporting only — never keyed on
        self.created = time.time()  # lint: ok(D02: job metadata, not results)
        self.log = EventLog(max_events=max_events)
        self._lock = threading.Lock()
        self._state = "queued"
        self._error: Optional[str] = None
        self._cached = 0
        self._computed = 0

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._state in TERMINAL_EVENTS

    # ------------------------------------------------------------------
    # Event log (bounded append; readers replay + follow via self.log)
    # ------------------------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        self.log.append(event)
        if event.get("event") in TERMINAL_EVENTS:
            self.log.close()

    def land(self, index: int, point) -> None:
        """Record one landed lane: counters under the lock, then the
        event append (which takes the log's own condition) outside it —
        the two locks are never held together."""
        with self._lock:
            if point.cached:
                self._cached += 1
            else:
                self._computed += 1
        self.append({
            "event": "lane",
            "index": index,
            "spec": point.spec.name,
            "key": point.key,
            "cached": point.cached,
            "result": point.result.to_dict(),
        })

    def set_state(self, state: str, error: Optional[str] = None) -> None:
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            self._state = state
            self._error = error

    def snapshot(self) -> Dict[str, Any]:
        """The job's summary form (job listings and status polls)."""
        dropped = self.log.dropped
        with self._lock:
            state, error = self._state, self._error
            cached, computed = self._cached, self._computed
        return {
            "id": self.id,
            "state": state,
            "error": error,
            "total": self.total,
            "landed": cached + computed,
            "cached": cached,
            "computed": computed,
            "created": self.created,
            "dropped_events": dropped,
        }


class _JobRegistry:
    """Jobs by id, behind one lock.  A finished job joins a FIFO, and
    the oldest finished jobs past :data:`MAX_FINISHED_JOBS` are
    forgotten; queued and running jobs are never."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()

    def add(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.id] = job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def retire(self, job_id: str) -> int:
        """Record a finished job; returns how many jobs were evicted."""
        with self._lock:
            self._finished.append(job_id)
            evicted = 0
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]
                evicted += 1
            return evicted


class JobManager:
    """Run jobs against one shared session on a bounded thread pool."""

    def __init__(self, session: Session, workers: int = 2,
                 max_events: int = DEFAULT_MAX_EVENTS):
        if workers < 1:
            raise ValueError("need at least one job worker")
        self.session = session
        self.workers = workers
        self.max_events = max_events
        self._registry = _JobRegistry()
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="serve-job")

    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[ScenarioSpec],
               options: JobOptions) -> Job:
        """Queue one sweep; returns immediately with the :class:`Job`."""
        if options.defaults:
            specs = [ScenarioSpec(name=spec.name,
                                  overrides={**options.defaults,
                                             **spec.overrides},
                                  seed=spec.seed)
                     for spec in specs]
        job = Job(specs, options, max_events=self.max_events)
        self._registry.add(job)
        obs.counter("repro_serve_jobs_total", state="queued").inc()
        self._pool.submit(self._run, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._registry.get(job_id)

    def jobs(self) -> List[Job]:
        return self._registry.jobs()

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        job.set_state("running")
        obs.counter("repro_serve_jobs_total", state="running").inc()
        try:
            job.append({"event": "start", "job": job.id, "total": job.total})
            # each job records into its own trace, so the sweep attaches
            # its receipt here rather than to another job's timeline
            with obs.new_trace() as tr:
                self.session.sweep(job.specs, settle=job.options.settle,
                                   trace=job.options.trace,
                                   track_energy=job.options.track_energy,
                                   on_result=job.land)
                receipt = tr.receipt if tr is not None else None
        except Exception:
            err = traceback.format_exc(limit=20)
            job.set_state("failed", error=err)
            terminal = {"event": "failed", "error": err}
        else:
            job.set_state("done")
            snap = job.snapshot()
            terminal = {"event": "done", "cached": snap["cached"],
                        "computed": snap["computed"], "total": job.total}
            if receipt is not None:
                terminal["receipt"] = receipt
        obs.counter("repro_serve_jobs_total", state=terminal["event"]).inc()
        # retention is applied before the terminal event goes out, so a
        # follower that saw it sees the registry as it now stands
        evicted = self._registry.retire(job.id)
        if evicted:
            obs.counter("repro_serve_jobs_evicted_total").inc(evicted)
        job.append(terminal)
