"""End-to-end acceptance for the sweep server.

The headline test drives two concurrent clients with overlapping grids
through a real HTTP server on an ephemeral port and proves the
shared-cache contract: every unique config is simulated exactly once
(hit/miss counters), results are bit-identical to an inline
``Session.sweep``, and the SSE stream delivers exactly one event per
lane in completion order.
"""

import http.client
import json
import shutil
import socket
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.scenarios import ScenarioSpec, Sweep
from repro.serve import ApiKeyAuth, ServeClient, ServeError, SweepServer
from repro.serve import jobs as jobs_module
from repro.serve import server as server_module
from repro.serve.client import main as client_main
from repro.serve.server import MAX_BODY_BYTES
from repro.session import Session
from repro.sim import NS, US
from repro.system import RunResult

BASE = {"n_phases": 2, "r_load": 6.0, "sim_time": 2 * US, "dt": 1 * NS,
        "seed": 0}


def _grid(name, freqs, l_values):
    return Sweep(base=dict(BASE), name=name).grid(fsm_frequency=freqs,
                                                  l_uh=l_values)


@pytest.fixture()
def server(tmp_path):
    session = Session(cache="readwrite", cache_dir=str(tmp_path / "cache"))
    with SweepServer(session=session, job_workers=2) as srv:
        yield srv


class TestAcceptance:
    def test_concurrent_overlapping_clients_share_every_compute(
            self, server):
        # 4 + 4 lanes, one shared config (333 MHz, 4.7 uH) -> 7 unique
        sweeps = [_grid("a", [1e8, 333e6], [1.0, 4.7]),
                  _grid("b", [333e6, 1e9], [4.7, 10.0])]
        lanes = [None, None]
        errors = []
        barrier = threading.Barrier(2)

        def run_client(slot):
            try:
                client = ServeClient(server.url)
                barrier.wait()
                snapshot = client.submit(sweep=sweeps[slot],
                                         track_energy=False)
                lanes[slot] = client.wait(snapshot["id"])
            except Exception as exc:   # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=run_client, args=(slot,))
                   for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        assert all(lane is not None for lane in lanes)

        # exactly one simulation per unique config, provable by counters
        session = server.session
        assert session.cache_stats()["misses"] == 7
        assert session.cache_stats()["hits"] == 1
        # the overlap lane was either served from the finished entry or
        # waited on the other job's in-flight compute — never recomputed
        assert session.cache_stats()["inflight_waits"] <= 1

        # one SSE event per lane, every index exactly once
        for slot, sweep in enumerate(sweeps):
            indices = [event["index"] for event in lanes[slot]]
            assert sorted(indices) == list(range(len(sweep)))
            assert len(indices) == len(set(indices))

        # bit-identical to an inline, uncached Session.sweep
        inline = Session(cache="off")
        for slot, sweep in enumerate(sweeps):
            points = inline.sweep(sweep, track_energy=False)
            by_index = {e["index"]: e for e in lanes[slot]}
            for i, point in enumerate(points):
                assert by_index[i]["run"].to_dict() == \
                    point.result.to_dict()

    def test_second_submission_is_fully_cache_hot(self, server):
        client = ServeClient(server.url)
        sweep = _grid("hot", [1e8], [1.0, 4.7])
        cold = client.run_sweep(sweep=sweep, track_energy=False)
        assert [e["cached"] for e in cold] == [False, False]
        hot = client.run_sweep(sweep=sweep, track_energy=False)
        assert [e["cached"] for e in hot] == [True, True]
        assert [e["run"].to_dict() for e in hot] == \
            [e["run"].to_dict() for e in cold]

    def test_duplicate_specs_within_one_job_compute_once(self, server):
        client = ServeClient(server.url)
        spec = ScenarioSpec(name="dup", overrides=dict(BASE, l_uh=1.0))
        snapshot = client.submit(specs=[spec, spec], track_energy=False)
        lanes = client.wait(snapshot["id"])
        assert server.session.cache_stats()["misses"] == 1
        final = client.job(snapshot["id"])
        assert (final["computed"], final["cached"]) == (1, 1)
        assert lanes[0]["run"].to_dict() == lanes[1]["run"].to_dict()


class TestRoutes:
    def test_fetch_by_key_serves_without_recompute(self, server):
        client = ServeClient(server.url)
        [lane] = client.run_sweep(
            specs=[ScenarioSpec(name="one", overrides=dict(BASE))],
            track_energy=False)
        misses_before = server.session.cache_stats()["misses"]
        fetched = client.result(lane["key"])
        assert fetched.to_dict() == lane["run"].to_dict()
        assert server.session.cache_stats()["misses"] == misses_before

    def test_kept_alive_connection_does_not_stall(self, server):
        """Headers and body go out in two writes; with Nagle on, each
        response on a reused connection waits out a delayed ACK
        (~40 ms), so 20 requests would take most of a second."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 kept-alive GETs took {elapsed:.3f} s"

    def test_missing_result_is_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.result("0" * 64)
        assert err.value.code == 404

    def test_unknown_job_is_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.job("deadbeef")
        assert err.value.code == 404

    def test_malformed_submission_is_400(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.submit(payload={"sweep": {"blocks": [{"kind": "nope"}]}})
        assert err.value.code == 400
        with pytest.raises(ServeError) as err:
            client.submit(payload={})
        assert err.value.code == 400

    def test_failed_job_raises_the_server_error(self, server):
        """A spec that decodes fine but cannot build a config fails in
        the job thread; the ``failed`` event's ``error`` text reaches the
        caller through ServeError."""
        client = ServeClient(server.url)
        bogus = ScenarioSpec(name="bogus",
                             overrides=dict(BASE, controller="bogus"))
        snapshot = client.submit(specs=[bogus], track_energy=False)
        with pytest.raises(ServeError) as err:
            client.wait(snapshot["id"])
        assert err.value.code == 500
        assert "controller must be 'async' or 'sync'" in str(err.value)
        assert client.job(snapshot["id"])["state"] == "failed"

    def test_follow_replays_finished_jobs_identically(self, server):
        client = ServeClient(server.url)
        snapshot = client.submit(sweep=_grid("replay", [1e8], [1.0, 4.7]),
                                 track_energy=False)
        live = [(e["event"], e.get("index")) for e in
                client.follow(snapshot["id"])]
        replay = [(e["event"], e.get("index")) for e in
                  client.follow(snapshot["id"])]
        assert live == replay
        assert live[0][0] == "start" and live[-1][0] == "done"
        assert [x for x in live if x[0] == "lane"] == \
            [("lane", 0), ("lane", 1)]

    def test_stats_and_jobs_listing(self, server):
        client = ServeClient(server.url)
        client.run_sweep(specs=[ScenarioSpec(name="s",
                                             overrides=dict(BASE))],
                         track_energy=False)
        stats = client.stats()
        assert stats["misses"] == 1 and stats["mode"] == "readwrite"
        assert stats["jobs"]["total"] == 1
        [job] = client.jobs()
        assert job["state"] == "done" and job["total"] == 1

    def test_traced_job_carries_waveforms_end_to_end(self, server):
        client = ServeClient(server.url)
        [lane] = client.run_sweep(
            specs=[ScenarioSpec(name="traced", overrides=dict(BASE))],
            trace=True, track_energy=False)
        assert lane["run"].trace is not None
        fetched = client.result(lane["key"], trace=True)
        assert fetched.trace is not None
        assert fetched.to_dict() == lane["run"].to_dict()


class TestAuth:
    def test_api_key_gates_every_route_but_health(self, tmp_path):
        session = Session(cache="readwrite",
                          cache_dir=str(tmp_path / "cache"))
        auth = ApiKeyAuth(keys=["sekrit"], env={})
        with SweepServer(session=session, auth=auth) as srv:
            anon = ServeClient(srv.url, api_key="")
            assert anon.health()["ok"]          # liveness stays open
            for call in (anon.jobs, anon.stats,
                         lambda: anon.submit(specs=[ScenarioSpec(
                             name="x", overrides=dict(BASE))])):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.code == 401

            wrong = ServeClient(srv.url, api_key="guess")
            with pytest.raises(ServeError) as err:
                wrong.jobs()
            assert err.value.code == 401

            good = ServeClient(srv.url, api_key="sekrit")
            assert good.jobs() == []


class TestObservability:
    """The obs surface of the serve layer: receipts ride the ``done``
    event, ``/v1/stats`` carries sweep aggregates and SSE drop totals,
    and ``/v1/metrics`` speaks Prometheus (satellites 1 and 5)."""

    def test_done_event_carries_the_sweep_receipt(self, server):
        client = ServeClient(server.url)
        snapshot = client.submit(sweep=_grid("rcpt", [1e8], [1.0, 4.7]),
                                 track_energy=False)
        done = [e for e in client.follow(snapshot["id"])
                if e["event"] == "done"][-1]
        receipt = done.get("receipt")
        assert receipt is not None
        assert receipt["kind"] == "sweep-receipt"
        assert receipt["n_lanes"] == done["total"] == 2
        assert receipt["cache"]["hits"] + receipt["cache"]["misses"] == 2
        assert len(receipt["keys"]) == 2

    def test_receipt_replays_with_the_event_log(self, server):
        client = ServeClient(server.url)
        snapshot = client.submit(sweep=_grid("rcpt2", [1e8], [2.0]),
                                 track_energy=False)
        first = [e for e in client.follow(snapshot["id"])
                 if e["event"] == "done"][-1]
        replay = [e for e in client.follow(snapshot["id"])
                  if e["event"] == "done"][-1]
        assert replay["receipt"] == first["receipt"]

    def test_done_event_omits_receipt_when_obs_disabled(self, tmp_path):
        from repro import obs
        obs.set_enabled(False)
        try:
            session = Session(cache="readwrite",
                              cache_dir=str(tmp_path / "cache"))
            with SweepServer(session=session, job_workers=1) as srv:
                client = ServeClient(srv.url)
                snapshot = client.submit(
                    specs=[ScenarioSpec(name="dark",
                                        overrides=dict(BASE))],
                    track_energy=False)
                done = [e for e in client.follow(snapshot["id"])
                        if e["event"] == "done"][-1]
            assert "receipt" not in done
        finally:
            obs.set_enabled(None)

    def test_stats_carries_aggregates_and_dropped_events(self, server):
        client = ServeClient(server.url)
        client.run_sweep(specs=[ScenarioSpec(name="agg",
                                             overrides=dict(BASE))],
                         track_energy=False)
        stats = client.stats()
        assert stats["jobs"]["dropped_events"] == 0
        assert stats["sweeps"] >= 1
        assert stats["lanes"] >= 1
        assert stats["solver_ticks"] > 0
        assert stats["events_delivered"] > 0
        assert stats["clock_edges_simulated"] >= 0
        assert stats["clock_edges_skipped"] >= 0

    def test_metrics_endpoint_counts_requests_by_route_family(self, server):
        import urllib.request
        from repro import obs
        client = ServeClient(server.url)
        client.stats()
        with urllib.request.urlopen(server.url + "/v1/metrics") as resp:
            text = resp.read().decode("utf-8")
        samples = obs.parse_prometheus_text(text)
        stats_hits = [v for series, v in samples.items()
                      if series.startswith("repro_serve_requests_total")
                      and 'route="/v1/stats"' in series]
        assert stats_hits and stats_hits[0] >= 1


def _metrics(server) -> dict:
    """The server's ``/v1/metrics`` samples by series."""
    with urllib.request.urlopen(server.url + "/v1/metrics") as resp:
        return obs.parse_prometheus_text(resp.read().decode("utf-8"))


def _rejected(server) -> dict:
    """``repro_serve_rejected_total`` by reason."""
    samples = _metrics(server)
    prefix = 'repro_serve_rejected_total{reason="'
    return {series[len(prefix):-2]: value
            for series, value in samples.items()
            if series.startswith(prefix)}


def _raw_post(server, length=None, body=b""):
    """POST /v1/jobs over a raw socket that stays open after the
    headers: returns (status, decoded JSON body).  The 10 s timeout
    turns a server blocked on a read into a failure, not a hang."""
    head = ("POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n")
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(4096)
            assert chunk, "server closed without answering"
            response += chunk
        header, _, rest = response.partition(b"\r\n\r\n")
        size = int([line.split(b":", 1)[1] for line in header.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")][0])
        while len(rest) < size:
            chunk = sock.recv(4096)
            assert chunk, "response body cut short"
            rest += chunk
    return int(header.split(b" ", 2)[1]), json.loads(rest)


class TestRequestBounds:
    """Fail closed: every client-controlled size or path is checked
    before the server acts on it, answered 4xx, and counted."""

    @pytest.mark.parametrize("length,reason", [
        ("-1", "bad_length"), ("-4096", "bad_length"),
        ("twelve", "bad_length"), ("", "bad_length"), (None, "bad_length"),
        (str(MAX_BODY_BYTES + 1), "too_large"), (str(1 << 40), "too_large"),
    ])
    def test_bad_content_length_is_refused_unread(self, server, length,
                                                  reason):
        before = _rejected(server).get(reason, 0)
        status, body = _raw_post(server, length)
        assert status == (413 if reason == "too_large" else 400)
        assert "error" in body
        assert _rejected(server)[reason] == before + 1
        assert server.manager.jobs() == []

    def test_stalled_body_times_out(self, server, monkeypatch):
        """A body shorter than its Content-Length is answered 408 once
        it stalls for BODY_TIMEOUT_S, instead of pinning the thread."""
        monkeypatch.setattr(server_module, "BODY_TIMEOUT_S", 0.2)
        before = _rejected(server).get("body_timeout", 0)
        status, body = _raw_post(server, "100", b'{"specs":')
        assert status == 408
        assert "error" in body
        assert _rejected(server)["body_timeout"] == before + 1
        assert server.manager.jobs() == []

    def test_body_at_the_cap_is_read(self, server):
        before = _rejected(server)
        payload = json.dumps({"specs": []}).encode()
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        status, body = _raw_post(server, str(len(payload)), payload)
        assert status == 400                       # read, then decoded
        assert "spec" in body["error"]
        assert _rejected(server) == before

    def test_largest_example_job_is_far_below_the_cap(self):
        """The cap sits well above what the repo's own clients send:
        the 65-lane full Fig. 7a grid, explicit specs included."""
        from repro.analog.coil import make_coil
        from repro.experiments.fig7 import controller_axis, default_l_values
        from repro.serve import job_request
        sweep = Sweep(base={"n_phases": 4, "r_load": 6.0,
                            "sim_time": 10 * US, "dt": 1 * NS, "seed": 0})
        sweep.grid(ctrl=controller_axis(),
                   pt=[(f"{l}", {"coil": make_coil(l)})
                       for l in default_l_values(quick=False)])
        size = len(json.dumps(job_request(specs=sweep.specs())).encode())
        assert 20 * size < MAX_BODY_BYTES

    def test_path_escape_key_is_400_and_never_served(self, tmp_path):
        session = Session(cache="readwrite",
                          cache_dir=str(tmp_path / "a" / "cache"))
        cache = session.cache
        key = "ab" * 32
        planted_result = RunResult(
            controller="async", v_final=1.0, peak_coil_current=0.5,
            ripple=0.01, coil_loss_w=1e-3, efficiency=0.9, ov_events=0)
        cache.store(key, planted_result)
        planted = tmp_path / "top"
        planted.mkdir()
        path = Path(cache._path(key))
        shutil.copyfile(path, planted / f"planted{path.suffix}")
        escape = "../top/planted"
        assert cache._load_entry(escape) == planted_result
        with SweepServer(session=session, job_workers=1) as srv:
            client = ServeClient(srv.url)
            assert client.result(key) == planted_result
            for bad in (escape, "..%2Ftop%2Fplanted", key.upper(),
                        key[:-1], key + "0"):
                with pytest.raises(ServeError) as err:
                    client.result(bad)
                assert err.value.code == 400, bad
            assert _rejected(srv)["bad_key"] >= 5


class TestJobRetention:
    def test_oldest_finished_jobs_are_evicted_past_the_bound(
            self, server, monkeypatch):
        """With room for two finished jobs, finishing a third forgets
        the oldest (404 on its snapshot and its events, counted), while
        a job still running is never evicted."""
        # perfbench samples the server's RSS after 20 jobs
        assert jobs_module.MAX_FINISHED_JOBS >= 20
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
        gate = threading.Event()
        sweep = server.session.sweep

        def held_sweep(specs, **kwargs):
            if specs[0].name == "held":
                assert gate.wait(60), "held job never released"
            return sweep(specs, **kwargs)

        monkeypatch.setattr(server.session, "sweep", held_sweep)
        before = _metrics(server)["repro_serve_jobs_evicted_total"]
        client = ServeClient(server.url)
        held = client.submit(
            specs=[ScenarioSpec(name="held", overrides=dict(BASE))],
            track_energy=False)["id"]
        quick = []
        for _ in range(3):
            job_id = client.submit(sweep=_grid("q", [1e8], [1.0]),
                                   track_energy=False)["id"]
            client.wait(job_id)
            quick.append(job_id)
        for path in (f"/v1/jobs/{quick[0]}", f"/v1/jobs/{quick[0]}/events"):
            with pytest.raises(ServeError) as err:
                client._json(path)
            assert err.value.code == 404
        assert [client.job(j)["state"] for j in quick[1:]] == ["done"] * 2
        assert client.job(held)["state"] == "running"
        assert _metrics(server)["repro_serve_jobs_evicted_total"] \
            == before + 1
        gate.set()
        client.wait(held)
        with pytest.raises(ServeError) as err:
            client.job(quick[1])
        assert err.value.code == 404
        assert {job["id"] for job in client.jobs()} == {quick[2], held}
        assert _metrics(server)["repro_serve_jobs_evicted_total"] \
            == before + 2


class TestClientCli:
    def test_follow_prints_every_event_of_a_finished_job(self, server,
                                                         capsys):
        client = ServeClient(server.url)
        job_id = client.submit(sweep=_grid("cli", [1e8], [1.0, 4.7]),
                               track_energy=False)["id"]
        client.wait(job_id)
        capsys.readouterr()
        assert client_main(["--url", server.url, "follow", job_id]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == \
            ["start", "lane", "lane", "done"]
        assert sorted(e["index"] for e in events[1:3]) == [0, 1]
        # JSON lines carry the wire payload, not the decoded RunResult
        assert all("run" not in e for e in events)
        assert RunResult.from_dict(events[1]["result"]) == \
            client.result(events[1]["key"])

    def test_follow_of_an_unknown_job_exits_one(self, server, capsys):
        assert client_main(["--url", server.url, "follow", "deadbeef"]) == 1
        assert "HTTP 404" in capsys.readouterr().err
