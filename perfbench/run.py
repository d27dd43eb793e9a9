"""The co-simulator's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fig7a_fixed --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The runner is the load generator: it
never imports ``repro`` itself.  It starts the process under test
(``perfbench/worker.py`` for the in-process workloads, ``python -m
repro.serve`` for ``serve_hot``), checks every output against
``reference.json`` and prints a readable report followed by one JSON
line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds span
and profile passes and reports the per-layer metrics instead.  See
``perfbench/README.md`` for the workloads and the metric catalogue.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("fig7a_fixed", "fig7a_adaptive", "fig6_traced", "serve_hot")

#: fresh processes (or server starts) per run whose set-up is timed
SETUP_SAMPLES = 5
#: a process under test that has not finished by then is killed
CHILD_TIMEOUT_S = 150.0
#: the server's peak RSS is read after this many hot jobs, so that the
#: job log the server retains is the same size on every run
RSS_AFTER_JOBS = 20
#: every process of a run shares one core, so that the calibrations the
#: runner and the worker take measure the core the work runs on
CPU = {min(os.sched_getaffinity(0))}

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_norm", "ms"),
    ("rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.deliver_s", "s"), ("sim.deliver_calls", "count"),
    ("sim.events_delivered", "count"), ("sim.heappop_calls", "count"),
    ("sim.pops_per_event", "ratio"),
    ("self_s.sim", "s"), ("calls.sim", "count"),
    ("self_s.digital", "s"), ("calls.digital", "count"),
    ("self_s.a2a", "s"), ("calls.a2a", "count"),
    ("self_s.control", "s"), ("calls.control", "count"),
    ("control.edges_simulated", "count"), ("control.edges_skipped", "count"),
    ("control.gated_frac", "ratio"),
    ("scenarios.assemble_s", "s"), ("scenarios.drive_self_s", "s"),
    ("scenarios.solver_ticks", "count"),
    ("self_s.scenarios", "s"), ("calls.scenarios", "count"),
    ("analog.step_s", "s"), ("analog.sample_s", "s"),
    ("self_s.analog", "s"), ("calls.analog", "count"),
    ("self_s.numpy", "s"),
    ("trace.build_s", "s"), ("self_s.trace", "s"),
    ("session.fingerprint_s", "s"), ("session.sweep_self_s", "s"),
    ("session.plan_ms", "ms"), ("session.lookup_ms", "ms"),
    ("session.cache_load_ms", "ms"), ("session.cache_store_ms", "ms"),
    ("session.hit_ratio", "ratio"), ("self_s.session", "s"),
    ("serve.first_job_ms", "ms"), ("serve.job_ms_p90", "ms"),
    ("serve.fetch_ms_p50", "ms"), ("serve.fetch_ms_p95", "ms"),
    ("serve.overhead_ms", "ms"),
    ("self_s.serve", "s"), ("self_s.obs", "s"), ("self_s.other", "s"),
    ("trace_overhead_frac", "ratio"),
    ("attrib.span_unattributed_frac", "ratio"),
    ("attrib.profile_unattributed_frac", "ratio"),
    ("attrib.obs_span_drift_frac", "ratio"),
    ("attrib.receipt_drift_frac", "ratio"),
)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(reason or "output mismatch")


# ---------------------------------------------------------------------------
# Processes under test
# ---------------------------------------------------------------------------
class Children:
    """Every process the runner starts; all are stopped on exit."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.procs: List[subprocess.Popen] = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env[name] = "1"
        self.env = env

    def start(self, argv: List[str], name: str) -> subprocess.Popen:
        stderr = open(self.work / f"{name}.stderr", "ab")
        try:
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=subprocess.PIPE,
                                    stderr=stderr, text=True)
        finally:
            stderr.close()
        self.procs.append(proc)
        try:
            os.sched_setaffinity(proc.pid, CPU)
        except ProcessLookupError:
            pass    # already ended; its output says why
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        return proc

    def stop(self, proc: subprocess.Popen, interrupt: bool = False,
             grace_s: float = 20.0) -> None:
        """Let ``proc`` end (after SIGINT when ``interrupt``), killing it
        if it is still running after ``grace_s``."""
        if proc.poll() is None:
            if interrupt:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, grace_s=0.0)


def read_json_line(proc: subprocess.Popen, what: str) -> Dict[str, Any]:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"{what}: process ended without output")
    return json.loads(line)


def run_worker(children: Children, workload: str, seed: int,
               seconds: float, trace: int, setup_only: bool = False,
               extra: Tuple[str, ...] = ()) -> Tuple[float, Dict[str, Any]]:
    """Start ``worker.py``; returns (normalised launch-to-ready seconds,
    result)."""
    argv = [str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", str(children.work), *extra]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = children.start(argv, workload)
    ready = read_json_line(proc, workload)
    setup_s = time.perf_counter() - t0
    if ready.get("event") != "ready":
        raise RuntimeError(f"{workload}: unexpected first line {ready}")
    setup_s = common.normalised(setup_s, ready["probe_ms"],
                                common.PROBE_REF_MS)
    result = {} if setup_only else read_json_line(proc, workload)
    children.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return setup_s, result


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------
def in_process(children: Children, workload: str, seed: int,
               seconds: float, trace: int, tally: Tally
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    setups = [run_worker(children, workload, seed, seconds, trace,
                         setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = run_worker(children, workload, seed, seconds, trace)
    setups.append(setup_s)
    passes = result["passes"]
    checked = list(passes)
    if trace:
        checked += [result["span_pass"], result["profile_pass"]]
    for p in checked:
        tally.add(p["attempted"], p["failed"], f"{workload}: lane mismatch")
    walls = [p["wall"] for p in passes]
    norms = [common.normalised(1e3 * p["wall"], p["probe_ms"],
                               common.PROBE_REF_MS) for p in passes]
    report = {
        "passes": len(walls),
        "sweep_s": common.median(walls),
        "sweep_s_min": min(walls),
        "sweep_s_max": max(walls),
        "probe_ms": common.median([p["probe_ms"] for p in passes]),
        "counters": passes[0]["counters"],
        "counters_pinned": all(p["counters_pinned"] for p in checked),
        "counters_repeat": all(p["counters"] == passes[0]["counters"]
                               for p in checked),
        "accuracy": result["accuracy"],
    }
    e2e = {"setup_s": common.median(setups),
           "op_ms_norm": common.median(norms),
           "rss_mb": result["rss_mb"]}
    if trace:
        report["layers"] = layer_metrics_in_process(result,
                                                    common.median(norms))
    return e2e, report


def span_value(spans: Dict[str, Dict[str, float]], name: str,
               field: str) -> float:
    return spans.get(name, {}).get(field, 0.0)


def mean_ms(spans: Dict[str, Dict[str, float]], name: str) -> float:
    calls = span_value(spans, name, "calls")
    return 1e3 * span_value(spans, name, "total_s") / calls if calls else 0.0


def drift(reference: float, other: float) -> float:
    return abs(other - reference) / reference if reference > 0 else 0.0


def common_layers(spans: Dict[str, Dict[str, float]],
                  profile: Dict[str, Any], counters: Dict[str, int],
                  per_span: float = 1.0, per_profile: float = 1.0
                  ) -> Dict[str, float]:
    """Layer metrics read the same way on every workload.  Span and
    profile totals are divided by the operations they covered."""
    per = per_span
    self_s = profile["self_s"]
    calls = profile["calls"]
    events = counters.get("events_delivered", 0)
    edges = counters.get("clock_edges_simulated", 0)
    skipped = counters.get("clock_edges_skipped", 0)
    out = {
        "sim.deliver_s": span_value(spans, "sim.deliver", "self_s") / per,
        "sim.deliver_calls": span_value(spans, "sim.deliver", "calls") / per,
        "sim.events_delivered": events,
        "sim.heappop_calls": profile["heappop_calls"] / per_profile,
        "sim.pops_per_event": (profile["heappop_calls"] / per_profile
                               / events if events else 0.0),
        "control.edges_simulated": edges,
        "control.edges_skipped": skipped,
        "control.gated_frac": (skipped / (edges + skipped)
                               if edges + skipped else 0.0),
        "scenarios.assemble_s":
            span_value(spans, "scenarios.assemble", "total_s") / per,
        "scenarios.drive_self_s":
            span_value(spans, "scenarios.drive", "self_s") / per,
        "scenarios.solver_ticks": counters.get("solver_ticks", 0),
        "analog.step_s": span_value(spans, "analog.step", "total_s") / per,
        "analog.sample_s": span_value(spans, "analog.sample", "total_s") / per,
        "trace.build_s": span_value(spans, "trace.build", "total_s") / per,
        "session.fingerprint_s":
            span_value(spans, "session.fingerprint", "total_s"),
        "session.sweep_self_s":
            span_value(spans, "session.sweep", "self_s") / per,
        "session.cache_load_ms": mean_ms(spans, "session.cache_load"),
        "session.cache_store_ms": mean_ms(spans, "session.cache_store"),
    }
    for layer in ("sim", "digital", "a2a", "control", "scenarios", "analog",
                  "trace", "session", "serve", "obs", "numpy", "other"):
        out[f"self_s.{layer}"] = self_s.get(layer, 0.0) / per_profile
    for layer in ("sim", "digital", "a2a", "control", "scenarios", "analog"):
        out[f"calls.{layer}"] = calls.get(layer, 0) / per_profile
    return out


def layer_metrics_in_process(result: Dict[str, Any],
                             plain_ms: float) -> Dict[str, float]:
    """``plain_ms``: the plain passes' median normalised time."""
    spans = result["spans"]
    span_pass, profile_pass = result["span_pass"], result["profile_pass"]
    passes = result["passes"]
    out = common_layers(spans, result["profile"], passes[0]["counters"])
    span_wall = span_value(spans, "pass", "total_s")
    sweep_span = span_value(spans, "session.sweep", "total_s")
    profiled = sum(result["profile"]["self_s"].values())
    out.update({
        "session.plan_ms": common.median([p["plan_ms"] for p in passes]),
        "session.lookup_ms": common.median([p["lookup_ms"] for p in passes]),
        "session.hit_ratio": common.median([p["hit_ratio"] for p in passes]),
        "trace_overhead_frac": common.normalised(
            1e3 * span_pass["wall"], span_pass["probe_ms"],
            common.PROBE_REF_MS) / plain_ms - 1.0,
        "attrib.span_unattributed_frac":
            span_value(spans, "pass", "self_s") / span_wall,
        "attrib.profile_unattributed_frac":
            1.0 - profiled / profile_pass["wall"],
        "attrib.obs_span_drift_frac":
            drift(sweep_span, span_pass["obs_sweep_s"]),
        "attrib.receipt_drift_frac":
            drift(sweep_span, span_pass["receipt_wall_s"]),
    })
    return out


# ---------------------------------------------------------------------------
# serve_hot: a fresh sweep server over a prefilled cache
# ---------------------------------------------------------------------------
class Client:
    """One closed-loop client: it sends its next request only after the
    previous reply, each on a new connection, as the program's own
    ``ServeClient`` does."""

    def __init__(self, port: int) -> None:
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn = self._connect()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def follow(self, job_id: str) -> List[Tuple[str, Dict[str, Any]]]:
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"events: HTTP {response.status}")
            events: List[Tuple[str, Dict[str, Any]]] = []
            kind, data = "message", None
            while True:
                line = response.readline()
                if not line:
                    raise RuntimeError("event stream ended before done")
                line = line.rstrip(b"\r\n")
                if line.startswith(b"event:"):
                    kind = line[6:].strip().decode()
                elif line.startswith(b"data:"):
                    data = json.loads(line[5:])
                elif not line and data is not None:
                    events.append((kind, data))
                    if kind in ("done", "failed"):
                        return events
                    kind, data = "message", None
        finally:
            conn.close()

    def job(self, payload: bytes) -> Tuple[float, List[Tuple[str, Dict]]]:
        t0 = time.perf_counter()
        status, body = self.request("POST", "/v1/jobs", payload)
        if status != 202:
            raise RuntimeError(f"submit: HTTP {status}")
        events = self.follow(json.loads(body)["id"])
        return 1e3 * (time.perf_counter() - t0), events


class Server:
    """One started sweep server and its client."""

    def __init__(self, children: Children, cache_dir: Path, layers: str,
                 out: Path) -> None:
        args = ["--port", "0", "--cache-dir", str(cache_dir),
                "--job-workers", "1"]
        if layers == "plain":
            argv = ["-m", "repro.serve", *args]
        else:
            argv = [str(HERE / "serve_host.py"), "--layers", layers,
                    "--out", str(out), "--", *args]
        self.children = children
        self.t0 = time.perf_counter()
        self.proc = children.start(argv, f"serve-{layers}")
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on http://")[1]
                        .split()[0].rsplit(":", 1)[1])
        self.client = Client(self.port)
        status, _ = self.client.request("GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"health: HTTP {status}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def sweep_seconds_sum(self) -> float:
        """``repro_sweep_seconds_sum`` from the server's own metrics."""
        status, body = self.client.request("GET", "/v1/metrics")
        for line in body.decode().splitlines():
            if line.startswith("repro_sweep_seconds_sum"):
                return float(line.split()[-1])
        return 0.0

    def stop(self) -> None:
        self.children.stop(self.proc, interrupt=True)


class ServeRun:
    """Job and fetch samples of one server, checked as they arrive."""

    def __init__(self, job: Dict[str, Any], want: List[str],
                 tally: Tally) -> None:
        self.payload = json.dumps(job["payload"]).encode()
        self.keys = job["keys"]
        self.want = want
        self.tally = tally
        self.jobs_ms: List[float] = []
        self.jobs_norm_ms: List[float] = []
        self.fetch_ms: List[float] = []
        self.receipts: List[Dict[str, Any]] = []
        self.rss_mb = 0.0

    def job(self, server: Server) -> Optional[float]:
        try:
            ms, events = server.client.job(self.payload)
        except (OSError, RuntimeError, http.client.HTTPException,
                ValueError) as exc:
            self.tally.add(1 + len(self.want), 1 + len(self.want),
                           f"job: {exc}")
            return None
        lanes = {data["index"]: data for kind, data in events
                 if kind == "lane"}
        kind, done = events[-1]
        bad = sum(1 for i, want in enumerate(self.want)
                  if i not in lanes or not lanes[i]["cached"]
                  or common.lane_digest(lanes[i]["result"]) != want)
        self.tally.add(1 + len(self.want), bad + (kind != "done"),
                       "job: lane not cached or mismatched")
        if kind == "done" and "receipt" in done:
            self.receipts.append(done["receipt"])
        return ms

    def fetch_all(self, server: Server) -> None:
        for key, want in zip(self.keys, self.want):
            t0 = time.perf_counter()
            try:
                status, body = server.client.request(
                    "GET", f"/v1/results/{key}")
            except (OSError, http.client.HTTPException) as exc:
                self.tally.add(1, 1, f"fetch: {exc}")
                continue
            self.fetch_ms.append(1e3 * (time.perf_counter() - t0))
            ok = (status == 200 and common.lane_digest(
                json.loads(body)["result"]) == want)
            self.tally.add(1, 0 if ok else 1, f"fetch: HTTP {status}")

    def hot_loop(self, server: Server, seconds: float) -> None:
        t_end = time.perf_counter() + seconds
        misses = 0
        while not self.jobs_ms or time.perf_counter() < t_end:
            cal_ms = common.calibrate(samples=5)
            ms = self.job(server)
            if ms is None:
                misses += 1
                if misses >= 3:
                    break
                continue
            self.jobs_ms.append(ms)
            self.jobs_norm_ms.append(common.normalised(ms, cal_ms))
            if len(self.jobs_ms) == RSS_AFTER_JOBS:
                self.rss_mb = server.peak_rss_mb()
            self.fetch_all(server)
        if not self.rss_mb:
            self.rss_mb = server.peak_rss_mb()


def start_server(children: Children, cache_dir: Path, layers: str,
                 run: ServeRun) -> Tuple[Server, float, float]:
    """Start a server and answer its first job; returns the server,
    normalised launch-to-first-job-done seconds and the first job's ms."""
    cal_ms = common.calibrate()
    server = Server(children, cache_dir, layers,
                    children.work / f"layers-{layers}.json")
    first_ms = run.job(server)
    if first_ms is None:
        server.stop()
        raise RuntimeError("the first job failed")
    setup_s = common.normalised(time.perf_counter() - server.t0, cal_ms)
    return server, setup_s, first_ms


def serve_hot(children: Children, seed: int, seconds: float, trace: int,
              tally: Tally) -> Tuple[Dict[str, float], Dict[str, Any]]:
    cache_dir = children.work / "serve_cache"
    job_path = children.work / "job.json"
    _, prefill = run_worker(children, "prefill", seed, seconds, 0,
                            extra=("--cache-dir", str(cache_dir),
                                   "--out", str(job_path)))
    tally.add(prefill["attempted"], prefill["failed"], "prefill mismatch")
    job = json.loads(job_path.read_text())
    reference = common.load_reference()["fig7a_fixed"][str(seed)]
    want = [lane["digest"] for lane in reference["lanes"]]
    if not trace:
        return serve_untraced(children, cache_dir, job, want, seconds, tally)
    return serve_traced(children, cache_dir, job, want, seconds, tally)


def serve_untraced(children, cache_dir, job, want, seconds, tally):
    run = ServeRun(job, want, tally)
    setups, firsts = [], []
    for i in range(SETUP_SAMPLES):
        server, setup_s, first_ms = start_server(children, cache_dir,
                                                 "plain", run)
        setups.append(setup_s)
        firsts.append(first_ms)
        if i < SETUP_SAMPLES - 1:
            server.stop()
    try:
        run.hot_loop(server, seconds)
    finally:
        server.stop()
    e2e = {"setup_s": common.median(setups),
           "op_ms_norm": common.median(run.jobs_norm_ms),
           "rss_mb": run.rss_mb}
    report = serve_report(run, firsts)
    return e2e, report


def serve_report(run: ServeRun, firsts: List[float]) -> Dict[str, Any]:
    return {
        "first_job_ms": common.median(firsts),
        "jobs": len(run.jobs_ms),
        "job_ms_p50": common.median(run.jobs_ms),
        "job_ms_p90": common.percentile(run.jobs_ms, 90),
        "fetches": len(run.fetch_ms),
        "fetch_ms_p50": common.median(run.fetch_ms),
        "fetch_ms_p95": common.percentile(run.fetch_ms, 95),
    }


def serve_traced(children, cache_dir, job, want, seconds, tally):
    """Three fresh servers: plain (latencies), spans, profile."""
    phases: Dict[str, Dict[str, Any]] = {}
    for layers in ("plain", "spans", "profile"):
        run = ServeRun(job, want, tally)
        server, _, first_ms = start_server(children, cache_dir, layers, run)
        try:
            run.hot_loop(server, seconds / 3)
            obs_sum = server.sweep_seconds_sum()
        finally:
            server.stop()
        out = children.work / f"layers-{layers}.json"
        data = json.loads(out.read_text()) if layers != "plain" else {}
        wall = (first_ms + sum(run.jobs_ms) + sum(run.fetch_ms)) / 1e3
        phases[layers] = {"run": run, "first_ms": first_ms, "data": data,
                          "obs_sum": obs_sum, "wall": wall}
    plain, spans_phase, prof_phase = (phases["plain"], phases["spans"],
                                      phases["profile"])
    run = plain["run"]
    spans = spans_phase["data"]["spans"]
    profile = prof_phase["data"]["profile"]
    # span and profile totals cover every job their server answered
    out = common_layers(spans, profile, {},
                        per_span=1 + len(spans_phase["run"].jobs_ms),
                        per_profile=1 + len(prof_phase["run"].jobs_ms))
    receipts = run.receipts
    overhead = [ms - 1e3 * r["wall_s"] for ms, r in
                zip(run.jobs_ms, receipts[1:])]
    sweep_span = span_value(spans, "session.sweep", "total_s")
    attributed = sum(row["self_s"] for row in spans.values())
    profiled = sum(v for k, v in profile["self_s"].items() if k != "idle")
    out.update({
        "session.plan_ms": common.median(
            [1e3 * r["phases"].get("plan", 0.0) for r in receipts]),
        "session.lookup_ms": common.median(
            [1e3 * r["phases"].get("lookup", 0.0) for r in receipts]),
        "session.hit_ratio": common.median(
            [r["cache"]["hit_ratio"] for r in receipts]),
        "serve.first_job_ms": plain["first_ms"],
        "serve.job_ms_p90": common.percentile(run.jobs_ms, 90),
        "serve.fetch_ms_p50": common.median(run.fetch_ms),
        "serve.fetch_ms_p95": common.percentile(run.fetch_ms, 95),
        "serve.overhead_ms": common.median(overhead),
        "trace_overhead_frac": (
            common.median(spans_phase["run"].jobs_norm_ms)
            / common.median(run.jobs_norm_ms) - 1.0),
        "attrib.span_unattributed_frac":
            1.0 - attributed / spans_phase["wall"],
        "attrib.profile_unattributed_frac":
            1.0 - profiled / prof_phase["wall"],
        "attrib.obs_span_drift_frac": drift(sweep_span,
                                            spans_phase["obs_sum"]),
        "attrib.receipt_drift_frac": drift(sweep_span, sum(
            r["wall_s"] for r in spans_phase["run"].receipts)),
    })
    e2e = {"op_ms_norm": common.median(run.jobs_norm_ms),
           "rss_mb": run.rss_mb}
    report = serve_report(run, [plain["first_ms"]])
    report["layers"] = out
    return e2e, report


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
def print_report(workload: str, seed: int, e2e: Dict[str, float],
                 report: Dict[str, Any], tally: Tally, trace: int) -> None:
    print(f"workload {workload}  seed {seed} (input seed "
          f"{common.input_seed(seed)})  trace {trace}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<34} {value:14.4f} {units[name]}")
    extra_units = {"sweep_s": "s", "sweep_s_min": "s", "sweep_s_max": "s",
                   "probe_ms": "ms",
                   "first_job_ms": "ms", "job_ms_p50": "ms",
                   "job_ms_p90": "ms", "fetch_ms_p50": "ms",
                   "fetch_ms_p95": "ms", "passes": "count",
                   "jobs": "count", "fetches": "count"}
    for name, unit in extra_units.items():
        if name in report:
            print(f"  {name:<34} {report[name]:14.4f} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<34} {frac:14.4f} ratio "
          f"({tally.failed} of {tally.attempted})")
    for name, value in sorted(report.get("counters", {}).items()):
        print(f"  count {name:<28} {value:14d}")
    if "counters_pinned" in report:
        print(f"  counts equal the pinned reference: "
              f"{report['counters_pinned']}; repeat across passes: "
              f"{report['counters_repeat']}")
    for name, value in sorted(report.get("accuracy", {}).items()):
        print(f"  accuracy {name:<25} {value:14.4f}")
    if "layers" in report:
        for name, unit in PER_LAYER:
            value = report["layers"].get(name, 0.0)
            print(f"  {name:<34} {value:14.4f} {unit}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    seed = common.input_seed(args.seed)
    os.sched_setaffinity(0, CPU)
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = Children(work)
    tally = Tally()
    try:
        if args.workload == "serve_hot":
            e2e, report = serve_hot(children, seed, args.seconds,
                                    args.trace, tally)
        else:
            e2e, report = in_process(children, args.workload, seed,
                                     args.seconds, args.trace, tally)
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print_report(args.workload, args.seed, e2e, report, tally, args.trace)
    if args.trace:
        metrics = {name: {"value": report["layers"].get(name, 0.0),
                          "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
