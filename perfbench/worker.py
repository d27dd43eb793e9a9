"""The process under test for the in-process workloads.

``run.py`` starts this file once per set-up sample and once per
measuring process; it is not meant to be run by hand::

    python perfbench/worker.py --workload fig7a_fixed --seed 0 \
        --seconds 20 --trace 0 --work .perfbench_work/<run>

It imports ``repro`` from the checkout's ``src/``, builds its inputs
from the seed and runs the one-time set-up (imports, ``Session``,
``code_fingerprint()``, a short warm-up run).  It then prints
``{"event": "ready"}`` with the machine speed probed during set-up and,
unless ``--setup-only``, measures passes for ``--seconds`` and prints
one JSON result line.  A :class:`SpeedProbe` samples the machine's speed
during set-up and during each plain pass.  ``--trace 1`` adds one span
pass and one profiled pass after the plain passes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402


#: peak RSS is read after this many plain passes
RSS_AFTER_PASSES = 2


def _untimed(fn: Callable) -> Callable:
    return fn


class Workload:
    """One workload's set-up, timed operation and output check."""

    kind = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._dirs = 0

    @property
    def reference(self) -> Dict[str, Any]:
        """This workload's recorded outputs for this seed."""
        return common.load_reference()[self.kind][str(self.seed)]

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"cache{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, wrap: Callable = _untimed) -> Dict[str, Any]:
        raise NotImplementedError

    def accuracy(self) -> Dict[str, Any]:
        return {}


class Fig7a(Workload):
    """Fig. 7a quick grid: 5 controllers x 4 coils, cold cache per pass."""

    def __init__(self, seed: int, work: Path, stepping: str):
        super().__init__(seed, work)
        from repro import Session, Sweep
        from repro.analog.coil import make_coil
        from repro.experiments.fig7 import controller_axis, default_l_values
        from repro.sim.units import NS, UH, US
        self.kind = f"fig7a_{stepping}"
        self.Session = Session
        self.stepping = stepping

        def grid(sim_time: float):
            sweep = Sweep(base={"n_phases": 4, "r_load": 6.0,
                                "sim_time": sim_time, "dt": 1 * NS,
                                "seed": seed}, name="fig7a")
            sweep.grid(ctrl=controller_axis(),
                       pt=[(f"{l / UH:g}uH", {"coil": make_coil(l)})
                           for l in default_l_values(quick=True)])
            return sweep

        self.sweep = grid(10 * US)
        self.warm_sweep = grid(0.3 * US)
        self.labels = [label for label, _ in controller_axis()]
        self.last_results: List[Dict[str, Any]] = []

    def setup(self) -> None:
        from repro.session.cache import code_fingerprint
        code_fingerprint()
        cache_dir = self.fresh_dir()
        self.Session(cache="readwrite", cache_dir=str(cache_dir),
                     stepping=self.stepping).sweep(self.warm_sweep,
                                                   track_energy=False)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def sweep_into(self, cache_dir: Path, wrap: Callable = _untimed):
        """One timed sweep of the grid into ``cache_dir``."""
        session = self.Session(cache="readwrite", cache_dir=str(cache_dir),
                               stepping=self.stepping)
        op = wrap(lambda: session.sweep(self.sweep, track_energy=False))
        t0 = time.perf_counter()
        points = op()
        wall = time.perf_counter() - t0
        return session, points, wall

    def run_pass(self, wrap: Callable = _untimed) -> Dict[str, Any]:
        cache_dir = self.fresh_dir()
        session, points, wall = self.sweep_into(cache_dir, wrap)
        results = [p.result.to_dict() for p in points]
        receipt = session.last_receipt() or {}
        obs_spans = [s.end - s.start for s in session.last_trace_spans()
                     if s.name == "session.sweep"]
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.last_results = results
        digests = [common.lane_digest(r) for r in results]
        reference = self.reference
        want = [lane["digest"] for lane in reference["lanes"]]
        counters = common.sum_counters(results)
        phases = receipt.get("phases", {})
        return {
            "wall": wall,
            "attempted": len(want),
            "failed": common.mismatch_count(digests, want),
            "counters": counters,
            "counters_pinned": counters == reference["counters"],
            "plan_ms": 1e3 * phases.get("plan", 0.0),
            "lookup_ms": 1e3 * phases.get("lookup", 0.0),
            "hit_ratio": receipt.get("cache", {}).get("hit_ratio", 0.0),
            "receipt_wall_s": receipt.get("wall_s", 0.0),
            "obs_sweep_s": sum(obs_spans),
        }

    def accuracy(self) -> Dict[str, Any]:
        """The Fig. 7a ordering: at how many of the coils ASYNC has the
        lowest peak current and 100 MHz the highest."""
        n = len(self.last_results) // len(self.labels)
        ordered = 0
        for j in range(n):
            peaks = {label: self.last_results[row * n + j]["peak_coil_current"]
                     for row, label in enumerate(self.labels)}
            ranked = sorted(peaks, key=peaks.get)
            ordered += ranked[0] == "ASYNC" and ranked[-1] == "100MHz"
        return {"fig7a.coils_ordered": ordered, "fig7a.coils": n}


class Fig6(Workload):
    """Both Fig. 6 runs (sync 333 MHz and async), scalar, traced."""

    kind = "fig6_traced"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from repro import Session
        from repro.experiments.fig6 import PAPER_FIG6, run_fig6
        self.session = Session(cache="off")
        self.run_fig6 = run_fig6
        self.paper = PAPER_FIG6
        self.last: Dict[str, Dict[str, Any]] = {}

    def setup(self) -> None:
        from repro.session.cache import code_fingerprint
        from repro.sim.units import NS, US
        from repro.system import SystemConfig
        code_fingerprint()
        system = self.session.build(SystemConfig(sim_time=0.3 * US,
                                                 dt=0.5 * NS, trace=True))
        system.sim.run_until(0.3 * US)
        system.trace_set()

    def run(self):
        return self.run_fig6(seed=self.seed, session=self.session,
                             keep_systems=True)

    @staticmethod
    def outputs(result) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, int]]:
        """``({"sync"|"async": quantities}, summed counters)``."""
        runs: Dict[str, Dict[str, Any]] = {}
        counters = dict.fromkeys(common.COUNTER_FIELDS, 0)
        for run in result.runs:
            runs[run.label.split("@")[0]] = {
                name: getattr(run, name) for name in common.FIG6_FIELDS}
            system = run.system
            counters["solver_ticks"] += system.solver.tick_count
            counters["events_delivered"] += system.sim.events_delivered
            for name in ("clock_edges_simulated", "clock_edges_skipped"):
                counters[name] += getattr(system.controller, name, 0)
        return runs, counters

    def run_pass(self, wrap: Callable = _untimed) -> Dict[str, Any]:
        op = wrap(self.run)
        t0 = time.perf_counter()
        result = op()
        wall = time.perf_counter() - t0
        runs, counters = self.outputs(result)
        self.last = runs
        reference = self.reference
        want = reference["runs"]
        failed = sum(runs.get(kind) != value for kind, value in want.items())
        failed += len(set(runs) - set(want))
        return {
            "wall": wall,
            "attempted": len(want),
            "failed": failed,
            "counters": counters,
            "counters_pinned": counters == reference["counters"],
            "plan_ms": 0.0, "lookup_ms": 0.0, "hit_ratio": 0.0,
            "receipt_wall_s": 0.0, "obs_sweep_s": 0.0,
        }

    def accuracy(self) -> Dict[str, Any]:
        """Model vs paper: ripple (V) and normal-load peak (A) per
        controller, with the relative error."""
        out: Dict[str, Any] = {}
        for kind, got in self.last.items():
            for name in ("ripple_v", "peak_a"):
                paper = self.paper[kind][name]
                out[f"fig6.{kind}.{name}"] = got[name]
                out[f"fig6.{kind}.{name}.paper"] = paper
                out[f"fig6.{kind}.{name}.rel_err"] = (got[name] - paper) / paper
        return out


class SpeedProbe:
    """Samples the machine's speed while an operation runs: every 20 ms
    a SIGALRM handler times a short run of the calibration loop in this
    thread's CPU time.  The handler touches no program state, and it
    costs every commit the same couple of percent."""

    PERIOD_S = 0.02

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        common.calibration_loop(500)
        self.samples.append(time.thread_time() - t0)

    def wrap(self, fn: Callable) -> Callable:
        def run():
            self.samples = []
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
            try:
                return fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        return run

    def mean_ms(self) -> float:
        if not self.samples:        # shorter than one period
            self._sample(signal.SIGALRM, None)
        return 1e3 * sum(self.samples) / len(self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name in ("fig7a_fixed", "prefill"):
        return Fig7a(seed, work, "fixed")
    if name == "fig7a_adaptive":
        return Fig7a(seed, work, "adaptive")
    if name == "fig6_traced":
        return Fig6(seed, work)
    raise SystemExit(f"unknown workload {name!r}")


def prefill(workload: Fig7a, cache_dir: Path, out: Path) -> Dict[str, Any]:
    """Fill the sweep server's cache with the Fig. 7a fixed grid and
    write the job payload plus lane keys the serve client needs."""
    from repro.serve.protocol import job_request
    _, points, wall = workload.sweep_into(cache_dir)
    digests = [common.lane_digest(p.result.to_dict()) for p in points]
    want = [lane["digest"] for lane in workload.reference["lanes"]]
    payload = job_request(sweep=workload.sweep, track_energy=False)
    out.write_text(json.dumps({"payload": payload,
                               "keys": [p.key for p in points]}))
    return {"wall": wall, "attempted": len(want),
            "failed": common.mismatch_count(digests, want)}


def traced_passes(workload: Workload, probe: SpeedProbe) -> Dict[str, Any]:
    """One span pass (root span ``pass`` around the timed operation,
    speed-probed like the plain passes) and one profiled pass."""
    spans = layers.Spans().install()
    try:
        span_pass = workload.run_pass(
            lambda fn: probe.wrap(spans.wrap("pass", fn)))
        span_pass["probe_ms"] = probe.mean_ms()
    finally:
        spans.uninstall()
    profiler = cProfile.Profile()

    def profiled(fn: Callable) -> Callable:
        def run():
            profiler.enable()
            try:
                return fn()
            finally:
                profiler.disable()
        return run

    profile_pass = workload.run_pass(profiled)
    split = layers.profile_split(pstats.Stats(profiler).stats)
    return {"span_pass": span_pass, "spans": spans.totals(),
            "profile_pass": profile_pass, "profile": split}


def set_up(args: argparse.Namespace) -> Workload:
    """Import the program from the checkout and run the one-time set-up."""
    import repro
    src = (HERE.parent / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, work)
    workload.setup()
    return workload


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cache-dir", help="prefill: the server's cache")
    parser.add_argument("--out", help="prefill: where to write the job")
    args = parser.parse_args()

    probe = SpeedProbe()
    workload = probe.wrap(lambda: set_up(args))()
    print(json.dumps({"event": "ready", "probe_ms": probe.mean_ms()}),
          flush=True)
    if args.setup_only:
        return 0
    if args.workload == "prefill":
        result = prefill(workload, Path(args.cache_dir), Path(args.out))
        print(json.dumps(result), flush=True)
        return 0

    budget = args.seconds / 3 if args.trace else args.seconds
    passes: List[Dict[str, Any]] = []
    t_end = time.perf_counter() + budget
    rss_mb = 0.0
    # start a pass only if one as slow as the last still fits
    while not passes or time.perf_counter() + passes[-1]["wall"] < t_end:
        record = workload.run_pass(probe.wrap)
        passes.append(dict(record, probe_ms=probe.mean_ms()))
        # every pass starts from a collected heap; peak RSS is read after
        # a fixed number of passes, so it does not grow with their count
        gc.collect()
        if len(passes) == RSS_AFTER_PASSES:
            rss_mb = peak_rss_mb()
    result: Dict[str, Any] = {"passes": passes,
                              "rss_mb": rss_mb or peak_rss_mb()}
    if args.trace:
        result.update(traced_passes(workload, probe))
    result["accuracy"] = workload.accuracy()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
