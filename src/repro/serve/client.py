"""Thin client for the sweep server: a library class and a CLI.

:class:`ServeClient` wraps the HTTP API with stdlib ``urllib`` — submit
a sweep (a :class:`~repro.scenarios.spec.Sweep`, a spec list, or an
already-encoded job payload), follow its SSE event stream, and fetch
cached results by content key.  Lane payloads decode back through
:meth:`RunResult.from_dict`, which is bit-exact, so a followed job
yields the same numbers as an inline ``Session.sweep``.

The CLI (``python -m repro.serve.client``) exposes the same verbs for
shell pipelines and CI::

    python -m repro.serve.client --url http://127.0.0.1:8732 \
        submit --job-json sweep.json --follow

The API key comes from ``--api-key`` or the client-side
``REPRO_SERVE_API_KEY`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from ..scenarios.spec import ScenarioSpec
from ..system import RunResult
from .auth import ENV_KEY
from .protocol import job_request
from .sse import iter_events


class ServeError(RuntimeError):
    """An HTTP error from the server, with its decoded body message."""

    def __init__(self, code: int, message: str):
        super().__init__(f"HTTP {code}: {message}")
        self.code = code


class ServeClient:
    """One server endpoint plus credentials."""

    def __init__(self, url: str, api_key: Optional[str] = None,
                 timeout: float = 60.0):
        self.url = url.rstrip("/")
        self.api_key = (api_key if api_key is not None
                        else os.environ.get(ENV_KEY, "").strip() or None)
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _open(self, path: str, payload: Optional[Mapping[str, Any]] = None,
              timeout: Optional[float] = None):
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.url + path, data=data,
                                         headers=headers)
        try:
            return urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))["error"]
            except Exception:
                message = exc.reason
            raise ServeError(exc.code, str(message)) from exc

    def _json(self, path: str,
              payload: Optional[Mapping[str, Any]] = None) -> Any:
        with self._open(path, payload) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._json("/v1/stats")

    def submit(self, sweep: Any = None,
               specs: Optional[Sequence[ScenarioSpec]] = None,
               payload: Optional[Mapping[str, Any]] = None,
               **options: Any) -> Dict[str, Any]:
        """Submit a job; returns its snapshot (``{"id", "state", ...}``).

        Pass a :class:`Sweep`/spec list (encoded via
        :func:`~repro.serve.protocol.job_request` with ``options``), or a
        ready wire payload via ``payload=``.
        """
        if payload is None:
            payload = job_request(specs=specs, sweep=sweep, **options)
        return self._json("/v1/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json(f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("/v1/jobs")["jobs"]

    def follow(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream a job's events (replay + live) until its terminal
        ``done``/``failed`` frame.  Lane frames carry the decoded
        result under ``"run"`` (and the raw payload under ``"result"``)."""
        response = self._open(f"/v1/jobs/{job_id}/events",
                              timeout=max(self.timeout, 120.0))
        with response:
            for event in iter_events(response):
                if event.get("event") == "lane":
                    event["run"] = RunResult.from_dict(event["result"])
                yield event
                if event.get("event") in ("done", "failed"):
                    return

    def wait(self, job_id: str) -> List[Dict[str, Any]]:
        """Follow to completion; returns the lane events in arrival
        order.  Raises :class:`ServeError` if the job failed, or if the
        server's bounded event log already evicted part of the replay
        (a ``truncated`` frame) — a clipped lane list would silently
        look like a smaller sweep."""
        lanes = []
        for event in self.follow(job_id):
            if event.get("event") == "lane":
                lanes.append(event)
            elif event.get("event") == "truncated":
                raise ServeError(
                    410, f"event replay truncated: {event.get('dropped')} "
                         "event(s) evicted before this follower connected")
            elif event.get("event") == "failed":
                raise ServeError(500, event.get("error", "job failed"))
        return lanes

    def run_sweep(self, sweep: Any = None,
                  specs: Optional[Sequence[ScenarioSpec]] = None,
                  **options: Any) -> List[Dict[str, Any]]:
        """Submit + wait; lane events sorted back into spec order."""
        snapshot = self.submit(sweep=sweep, specs=specs, **options)
        lanes = self.wait(snapshot["id"])
        return sorted(lanes, key=lambda e: e["index"])

    def result(self, key: str, trace: bool = False) -> RunResult:
        """Fetch any cached result by content key (zero recompute)."""
        suffix = "?trace=1" if trace else ""
        payload = self._json(f"/v1/results/{key}{suffix}")
        return RunResult.from_dict(payload["result"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _print(obj: Any) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _print_events(client: ServeClient, job_id: str,
                  quiet: bool = False) -> int:
    """Follow a job, printing one JSON line per event (only the terminal
    one when ``quiet``); exit code 1 if the job failed."""
    failed = False
    for event in client.follow(job_id):
        event.pop("run", None)  # JSON output: keep the raw payload only
        if not quiet or event.get("event") in ("done", "failed"):
            _print(event)
        failed = failed or event.get("event") == "failed"
    return 1 if failed else 0


def _cmd_submit(client: ServeClient, args) -> int:
    if args.job_json == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.job_json, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    snapshot = client.submit(payload=payload)
    if not args.follow:
        _print(snapshot)
        return 0
    return _print_events(client, snapshot["id"], quiet=args.quiet)


def _cmd_result(client: ServeClient, args) -> int:
    suffix = "?trace=1" if args.trace else ""
    payload = client._json(f"/v1/results/{args.key}{suffix}")
    _print(payload)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Client for the repro sweep server.")
    parser.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8732")
    parser.add_argument("--api-key", default=None,
                        help=f"API key (default: ${ENV_KEY})")
    parser.add_argument("--timeout", type=float, default=60.0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("health", help="server liveness + auth mode")
    sub.add_parser("stats", help="cache counters and job totals")
    sub.add_parser("jobs", help="list job snapshots")

    p = sub.add_parser("submit", help="submit a job payload (JSON file)")
    p.add_argument("--job-json", required=True,
                   help='payload path, or "-" for stdin')
    p.add_argument("--follow", action="store_true",
                   help="stream events until the job finishes")
    p.add_argument("--quiet", action="store_true",
                   help="with --follow: print only the terminal event")

    p = sub.add_parser("job", help="one job snapshot")
    p.add_argument("id")

    p = sub.add_parser("follow", help="stream a job's events (SSE)")
    p.add_argument("id")

    p = sub.add_parser("result", help="fetch a cached result by key")
    p.add_argument("key")
    p.add_argument("--trace", action="store_true",
                   help="require the entry's waveforms")

    args = parser.parse_args(argv)
    client = ServeClient(args.url, api_key=args.api_key,
                         timeout=args.timeout)
    try:
        if args.command == "health":
            _print(client.health())
        elif args.command == "stats":
            _print(client.stats())
        elif args.command == "jobs":
            _print(client.jobs())
        elif args.command == "job":
            _print(client.job(args.id))
        elif args.command == "submit":
            return _cmd_submit(client, args)
        elif args.command == "follow":
            return _print_events(client, args.id)
        elif args.command == "result":
            return _cmd_result(client, args)
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {args.url}: {exc.reason}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
