#!/usr/bin/env python
"""Sweep-as-a-service smoke: a real server process, driven over HTTP.

Launches ``python -m repro.serve`` on an ephemeral port (API-key
protected), builds the Fig. 7a quick-grid job payload (5 controllers x
4 coils = 20 lanes) and submits it twice through the client CLI
(``python -m repro.serve.client submit --follow``):

- the **cold** job simulates every lane, streaming one SSE lane event
  per scenario as it lands;
- the server is then restarted over the same cache, so the **hot**
  job runs in a fresh process: it must be served entirely from the
  on-disk result cache — every lane ``cached: true``, every number
  bit-identical to the cold pass, zero recompute;
- every hot lane is then fetched by content key through the client's
  ``result`` command (``GET /v1/results/<key>``), and each fetched
  result must equal the job's bit for bit.

The obs smoke rides along: ``GET /v1/metrics`` must answer with a
parseable Prometheus text exposition carrying >= 10 named series, and
the hot job's ``done`` event must embed its sweep receipt.

Doubles as the CI serve-smoke step: ``--require-hot`` exits non-zero
unless the hot job is 100% cache-hot and bit-identical, and every
fetch returns the job's result exactly, and
``--bench-json`` writes the timing/counter summary the CI job uploads
as ``BENCH_serve.json``.

Run:  python examples/serve_sweep.py [--cache-dir D] [--workers N]
                                     [--bench-json F] [--require-hot]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.analog.coil import make_coil
from repro.obs import parse_prometheus_text
from repro.experiments.fig7 import controller_axis, default_l_values
from repro.scenarios import Sweep
from repro.serve import job_request
from repro.sim.units import NS, UH, US

#: the smoke server runs key-protected so the auth path is exercised too
API_KEY = "ci-serve-smoke"


def fig7a_quick_job() -> dict:
    """The same grid ``run_fig7a(quick=True)`` sweeps, as a job payload."""
    sweep = Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                        "dt": 1 * NS, "seed": 0}, name="fig7a")
    coils = [(f"{l / UH:g}uH", {"coil": make_coil(l)})
             for l in default_l_values(quick=True)]
    sweep.grid(ctrl=controller_axis(), pt=coils)
    return job_request(sweep=sweep, track_energy=False)


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def start_server(cache_dir: str, workers):
    cmd = [sys.executable, "-m", "repro.serve", "--port", "0",
           "--cache-dir", cache_dir]
    if workers:
        cmd += ["--workers", str(workers)]
    env = _env()
    env["REPRO_SERVE_API_KEY"] = API_KEY
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    banner = proc.stdout.readline().strip()
    try:
        url = banner.split()[3]
        assert url.startswith("http://")
    except (IndexError, AssertionError):
        proc.terminate()
        raise RuntimeError(f"unexpected server banner: {banner!r}")
    for _ in range(50):
        if client(url, "health", check=False).returncode == 0:
            return proc, url
        if proc.poll() is not None:
            raise RuntimeError("server exited during startup")
        time.sleep(0.2)
    proc.terminate()
    raise RuntimeError("server never became healthy")


def stop_server(proc) -> None:
    proc.terminate()
    proc.wait(timeout=30)


def client(url: str, *args: str, api_key: str = API_KEY,
           check: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.serve.client", "--url", url,
           "--api-key", api_key, *args]
    result = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
    if check and result.returncode != 0:
        raise RuntimeError(f"client {args[0]} failed: {result.stderr}")
    return result


def scrape_metrics(url: str) -> dict:
    """GET /v1/metrics and parse the Prometheus exposition."""
    request = urllib.request.Request(
        url + "/v1/metrics",
        headers={"Authorization": f"Bearer {API_KEY}"})
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return parse_prometheus_text(response.read().decode("utf-8"))


def submit(url: str, job_path: str, label: str):
    """Submit + follow through the CLI; returns ({index: lane}, seconds)."""
    t0 = time.perf_counter()
    result = client(url, "submit", "--job-json", job_path, "--follow")
    elapsed = time.perf_counter() - t0
    events = [json.loads(line) for line in result.stdout.splitlines()]
    if not events or events[-1].get("event") != "done":
        raise RuntimeError(f"{label} job did not finish: {events[-1:]}")
    lanes = {e["index"]: e for e in events if e.get("event") == "lane"}
    cached = sum(1 for e in lanes.values() if e["cached"])
    print(f"{label} job: {elapsed:6.2f} s  {len(lanes)} lanes, "
          f"{cached} from cache")
    return lanes, elapsed


def _canonical(payload: dict) -> str:
    """Exact text form: float ``repr`` round-trips, so equal text means
    bit-identical numbers (``-0.0`` included)."""
    return json.dumps(payload, sort_keys=True)


def fetch_lanes(url: str, lanes: dict) -> int:
    """Fetch every lane by key; returns how many equal the job's result
    bit for bit."""
    exact = 0
    for lane in lanes.values():
        fetched = json.loads(client(url, "result", lane["key"]).stdout)
        exact += _canonical(fetched["result"]) == _canonical(lane["result"])
    return exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="server cache root (default: a temp dir)")
    parser.add_argument("--workers", type=int, default=None,
                        help="simulation worker processes on the server")
    parser.add_argument("--bench-json", default=None,
                        help="write the timing/counter summary here")
    parser.add_argument("--require-hot", action="store_true",
                        help="fail unless the second job is 100%% "
                             "cache-hot and bit-identical")
    args = parser.parse_args()

    tmp = None
    if args.cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_serve_")
        args.cache_dir = tmp.name

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(fig7a_quick_job(), fh)
        job_path = fh.name

    proc, url = start_server(args.cache_dir, args.workers)
    print(f"server up at {url}")
    try:
        # the key gates everything but liveness
        assert client(url, "health", api_key="", check=False).returncode == 0
        assert client(url, "stats", api_key="", check=False).returncode == 1

        cold, cold_s = submit(url, job_path, "cold")
        # a fresh server over the same cache: the hot job exercises the
        # hit path of a process that has simulated nothing
        stop_server(proc)
        proc, url = start_server(args.cache_dir, args.workers)
        print(f"server restarted at {url}")
        hot, hot_s = submit(url, job_path, "hot ")

        stats = json.loads(client(url, "stats").stdout)
        identical = (sorted(cold) == sorted(hot) and all(
            _canonical(cold[i]["result"]) == _canonical(hot[i]["result"])
            for i in cold))
        hot_cached = sum(1 for e in hot.values() if e["cached"])
        print(f"hot job: {hot_cached}/{len(hot)} lanes cache-hot; "
              f"bit-identical: {identical}; "
              f"server counters: {stats['hits']} hits / "
              f"{stats['misses']} misses")
        fetched = fetch_lanes(url, hot)
        print(f"fetch by key: {fetched}/{len(hot)} lanes bit-identical "
              "to the hot job")

        # obs smoke: the metrics exposition must parse with a healthy
        # series catalogue, and stats must carry the SSE drop totals
        samples = scrape_metrics(url)
        metric_names = {series.split("{")[0] for series in samples}
        assert len(metric_names) >= 10, sorted(metric_names)
        assert samples["repro_obs_enabled"] == 1
        print(f"/v1/metrics: {len(metric_names)} named series, "
              f"{stats['jobs']['dropped_events']} SSE events dropped")

        if args.bench_json:
            summary = {
                "lanes": len(cold), "cold_s": round(cold_s, 3),
                "hot_s": round(hot_s, 3),
                "speedup": round(cold_s / hot_s, 2) if hot_s else None,
                "hot_cached_lanes": hot_cached,
                "bit_identical": identical, "fetched_exact": fetched,
                "server_stats": stats,
                "metric_series": len(samples),
            }
            with open(args.bench_json, "w", encoding="utf-8") as out:
                json.dump(summary, out, indent=2, sort_keys=True)
            print(f"wrote {args.bench_json}")

        if args.require_hot and (hot_cached != len(hot) or not identical
                                 or fetched != len(hot)):
            print("FAIL: hot job must be fully cache-hot and identical, "
                  "and every fetch by key exact", file=sys.stderr)
            return 1
        return 0
    finally:
        stop_server(proc)
        os.unlink(job_path)
        if tmp is not None:
            tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
