"""The sweep server: ``Session`` behind a small stdlib HTTP API.

Routes (all JSON; every route except ``/v1/health`` requires an API key
when keys are configured — see :mod:`repro.serve.auth`):

========================  ===================================================
``GET  /v1/health``       liveness probe (unauthenticated)
``POST /v1/jobs``         submit a sweep (:mod:`repro.serve.protocol` forms);
                          ``202`` with the job snapshot; ``400`` for a
                          missing or malformed ``Content-Length``,
                          ``413`` above :data:`MAX_BODY_BYTES`,
                          ``408`` when the body stalls for
                          :data:`BODY_TIMEOUT_S`
``GET  /v1/jobs``         list job snapshots
``GET  /v1/jobs/<id>``    one job snapshot
``GET  /v1/jobs/<id>/events``  SSE stream: event replay (prefixed by an
                          explicit ``truncated`` marker when the bounded
                          log already evicted early events), then live
                          per-lane events until the terminal ``done`` /
                          ``failed`` frame
``GET  /v1/results/<key>``     any cached result by content key, zero
                          recompute (``?trace=1`` to require waveforms);
                          ``400`` unless the key is 64 lowercase hex,
                          ``404`` when absent
``GET  /v1/stats``        session cache/sweep aggregates + job totals
``GET  /v1/metrics``      Prometheus text exposition of the obs registry
========================  ===================================================

Concurrency model: :class:`~http.server.ThreadingHTTPServer` gives every
request its own thread; submissions enqueue onto the
:class:`~repro.serve.jobs.JobManager` pool; all jobs share ONE
:class:`~repro.session.Session`, whose concurrent-safe cache and
in-flight registry guarantee each unique uncached config is simulated
exactly once across overlapping jobs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..session import Session
from ..session.cache import is_cache_key
from .auth import ApiKeyAuth
from .jobs import TERMINAL_EVENTS, JobManager
from .protocol import ProtocolError, decode_job
from .sse import format_event

#: largest ``POST /v1/jobs`` body accepted; a longer one is answered
#: ``413`` without being read.  A job costs ~330 bytes per lane: the
#: 20-lane Fig. 7a quick grid is 6.4 KB, the 65-lane full grid 21 KB.
MAX_BODY_BYTES = 1 << 20

#: longest wait, in seconds, for more of a ``POST /v1/jobs`` body; a
#: client that stalls longer is answered ``408`` and disconnected, so a
#: body shorter than its ``Content-Length`` cannot pin a handler thread
BODY_TIMEOUT_S = 10.0


def _route_family(path: str) -> str:
    """Collapse per-job/per-key paths into bounded label values, so the
    request counter cannot grow a series per job id."""
    if path.startswith("/v1/jobs/"):
        return ("/v1/jobs/<id>/events" if path.endswith("/events")
                else "/v1/jobs/<id>")
    if path.startswith("/v1/results/"):
        return "/v1/results/<key>"
    if path in ("/v1/health", "/v1/jobs", "/v1/stats", "/v1/metrics"):
        return path
    return "other"


class _Handler(BaseHTTPRequestHandler):
    """One request; state lives on ``self.server`` (:class:`_HTTPServer`)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # _json writes headers and body separately; with Nagle on, a
    # kept-alive client waits out a delayed ACK on every response
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _reject(self, code: int, reason: str, message: str) -> None:
        """Refuse client input before acting on it; the connection is
        closed, since a body may be left unread."""
        obs.counter("repro_serve_rejected_total", reason=reason).inc()
        self.close_connection = True
        self._error(code, message)

    def _authorized(self) -> bool:
        if self.server.auth.authorize(self.headers):  # type: ignore
            return True
        self._error(401, "missing or invalid API key")
        return False

    def _route(self) -> Tuple[str, dict]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", parse_qs(parts.query)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path, query = self._route()
        manager: JobManager = self.server.manager  # type: ignore
        obs.counter("repro_serve_requests_total",
                    route=_route_family(path)).inc()
        if path == "/v1/health":
            self._json(200, {"ok": True,
                             "open": self.server.auth.open,  # type: ignore
                             "jobs": len(manager.jobs())})
            return
        if not self._authorized():
            return
        if path == "/v1/metrics":
            body = obs.prometheus_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/v1/stats":
            stats = manager.session.cache_stats()
            jobs = manager.jobs()
            stats["jobs"] = {
                "total": len(jobs),
                "finished": sum(1 for j in jobs if j.finished),
                "dropped_events": sum(j.log.dropped for j in jobs),
            }
            self._json(200, stats)
            return
        if path == "/v1/jobs":
            self._json(200, {"jobs": [job.snapshot()
                                      for job in manager.jobs()]})
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                self._stream_events(rest[:-len("/events")].rstrip("/"))
                return
            job = manager.get(rest)
            if job is None:
                self._error(404, f"no such job {rest!r}")
                return
            self._json(200, job.snapshot())
            return
        if path.startswith("/v1/results/"):
            self._fetch_result(path[len("/v1/results/"):], query)
            return
        self._error(404, f"no such route {path!r}")

    def do_POST(self) -> None:  # noqa: N802
        path, _ = self._route()
        obs.counter("repro_serve_requests_total",
                    route=_route_family(path)).inc()
        if not self._authorized():
            return
        if path != "/v1/jobs":
            self._error(404, f"no such route {path!r}")
            return
        try:
            length = int(self.headers["Content-Length"])
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            self._reject(400, "bad_length", "Content-Length must be a "
                         "non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self._reject(413, "too_large",
                         f"request body over {MAX_BODY_BYTES} bytes")
            return
        # only the body read is bounded: keep-alive waits and SSE
        # streams run with no socket timeout
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._reject(408, "body_timeout", "request body not received "
                         f"within {BODY_TIMEOUT_S:g} s")
            return
        finally:
            self.connection.settimeout(None)
        try:
            payload = json.loads(body or b"null")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return
        try:
            specs, options = decode_job(payload)
        except ProtocolError as exc:
            self._error(400, str(exc))
            return
        job = self.server.manager.submit(specs, options)  # type: ignore
        self._json(202, job.snapshot())

    # ------------------------------------------------------------------
    def _fetch_result(self, key: str, query: dict) -> None:
        session: Session = self.server.manager.session  # type: ignore
        if not is_cache_key(key):
            self._reject(400, "bad_key", "result keys are 64 lowercase "
                         "hex digits")
            return
        if session.cache is None:
            self._error(404, "server is running without a cache")
            return
        want_trace = query.get("trace", ["0"])[-1] not in ("0", "", "false")
        result = session.cache.load(key, want_trace=want_trace)
        if result is None:
            self._error(404, f"no cached result for key {key!r}")
            return
        self._json(200, {"key": key, "result": result.to_dict()})

    def _stream_events(self, job_id: str) -> None:
        job = self.server.manager.get(job_id)  # type: ignore
        if job is None:
            self._error(404, f"no such job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE has no length; signal end-of-stream by closing
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        try:
            while True:
                cursor, batch = job.log.events_since(cursor, timeout=15.0)
                if not batch:
                    if job.log.closed:
                        return
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                for event in batch:
                    payload = dict(event)
                    kind = payload.pop("event", "message")
                    self.wfile.write(format_event(kind, payload))
                    self.wfile.flush()
                    if kind in TERMINAL_EVENTS:
                        return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, manager: JobManager, auth: ApiKeyAuth,
                 verbose: bool = False):
        self.manager = manager
        self.auth = auth
        self.verbose = verbose
        super().__init__(address, _Handler)


class SweepServer:
    """Owns the session, job pool, and HTTP listener.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  Designed to run in-process for tests (``start`` /
    ``stop``) and as the long-running process behind
    ``python -m repro.serve``.
    """

    def __init__(self, session: Optional[Session] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 job_workers: int = 2, auth: Optional[ApiKeyAuth] = None,
                 verbose: bool = False):
        self.session = session if session is not None \
            else Session(cache="readwrite")
        self.auth = auth if auth is not None else ApiKeyAuth()
        self.manager = JobManager(self.session, workers=job_workers)
        self._httpd = _HTTPServer((host, port), self.manager, self.auth,
                                  verbose=verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SweepServer":
        """Serve on a background thread; returns self (chainable)."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="serve-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the launcher's main loop)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.manager.shutdown()

    def __enter__(self) -> "SweepServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
