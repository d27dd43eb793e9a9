"""The cache-hot path is NumPy-free by structure.

A fresh sweep server answers a fully cached job from the entries'
headers: nothing on that path makes an array, so nothing on it may
import NumPy or the vector engine.  NumPy loads on a process's first miss, or on its
first traced read or store.  Each check runs in a fresh interpreter,
because this test process has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.scenarios import Sweep
from repro.serve import job_request
from repro.session import Session
from repro.sim import NS, US

SRC = str(Path(repro.__file__).resolve().parents[1])

#: modules a cache-hot process must never load
ARRAY_MODULES = ("numpy", "repro.scenarios.engine",
                 "repro.scenarios.vector_solver",
                 "repro.scenarios.vector_stage", "repro.trace")

HOT_SWEEP = """
import json, sys
import repro.serve.__main__
from repro.serve import decode_job
from repro.session import Session

specs, options = decode_job(json.loads(sys.argv[2]))
points = Session(cache="readwrite", cache_dir=sys.argv[1]).sweep(
    specs, settle=options.settle, trace=options.trace,
    track_energy=options.track_energy)
print(json.dumps({"cached": [p.cached for p in points],
                  "loaded": [m for m in json.loads(sys.argv[3])
                             if m in sys.modules]}))
"""


def _fresh(code, *args):
    """Run ``code`` in a new interpreter; returns its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cache_hot_sweep_in_a_fresh_server_loads_no_numpy(tmp_path):
    sweep = Sweep(base={"n_phases": 2, "sim_time": 0.3 * US, "dt": 1 * NS,
                        "seed": 0}, name="hot").grid(
        controller=["async", "sync"], l_uh=[1.0, 4.7])
    cache_dir = str(tmp_path / "cache")
    cold = Session(cache="readwrite", cache_dir=cache_dir).sweep(
        sweep, track_energy=False)
    assert not any(p.cached for p in cold)

    payload = json.dumps(job_request(sweep=sweep, track_energy=False))
    hot = _fresh(HOT_SWEEP, cache_dir, payload, json.dumps(ARRAY_MODULES))
    assert hot["cached"] == [True] * len(cold)
    assert hot["loaded"] == []


def test_import_repro_loads_no_numpy():
    loaded = _fresh("import json, sys, repro; print(json.dumps("
                    "[m for m in ('numpy', 'repro.session', 'repro.trace')"
                    " if m in sys.modules]))")
    assert loaded == []

