"""Stdlib-only helpers shared by the runner, the worker and the recorder.

Nothing here imports ``repro``: the runner (the load generator) stays
outside the program under test, and only the worker processes import it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: the benchmark records references for input seeds 0..N_SEEDS-1; the
#: ``--seed`` argument selects one of them (seed mod N_SEEDS).  Seed 0 is
#: the default; every other recorded seed is held out from tuning.
N_SEEDS = 16

#: RunResult fields that are simulated physics: they must match the
#: reference bit for bit, or the lane counts as failed
PHYSICAL_FIELDS = ("controller", "v_final", "peak_coil_current", "ripple",
                   "coil_loss_w", "efficiency", "ov_events", "cycles",
                   "metastable_events")

#: RunResult kernel/solver counters: pinned and reported as count
#: metrics, compared with the reference but not failed on (a change to
#: the event kernel may legitimately move them without moving physics)
COUNTER_FIELDS = ("solver_ticks", "events_delivered",
                  "clock_edges_simulated", "clock_edges_skipped")

#: Fig. 6 quantities compared bit for bit (the ``Fig6Run`` fields)
FIG6_FIELDS = ("ripple_v", "peak_a", "startup_overshoot_v",
               "ov_events_startup", "ov_events_after_startup",
               "recovery_overshoot_v", "hl_events", "v_min_high_load")


def input_seed(seed: int) -> int:
    """The program-side seed a ``--seed`` argument selects."""
    return seed % N_SEEDS


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def lane_digest(result: Mapping[str, Any]) -> str:
    """Digest of one lane's physical outputs, from ``RunResult.to_dict()``
    or the identical JSON a server sends (floats round-trip exactly)."""
    payload = {name: result[name] for name in PHYSICAL_FIELDS}
    return hashlib.sha256(canonical(payload).encode()).hexdigest()[:20]


def sum_counters(results: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    totals = dict.fromkeys(COUNTER_FIELDS, 0)
    for result in results:
        for name in COUNTER_FIELDS:
            totals[name] += int(result[name])
    return totals


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


#: what one calibration sample (``calibration_loop(5000)``) and one
#: in-pass speed sample (``calibration_loop(500)``) take on the reference
#: machine, in ms of thread CPU time: the fast state of the 2-core
#: machine the benchmark was built on.  Normalised times read as ms on
#: that machine.
CAL_REF_MS = 3.0
PROBE_REF_MS = 0.3


def calibration_loop(n: int = 5000) -> int:
    """A fixed pure-Python event loop: a heap of timestamped closures,
    the instruction mix of the program's event kernel."""
    queue: List[Any] = []
    total = [0]
    push, pop = heapq.heappush, heapq.heappop

    def make(k: int):
        def fire() -> None:
            total[0] += k
        return fire

    handlers = [make(k) for k in range(64)]
    t = 0.0
    for i in range(n):
        push(queue, (t + (i * 7919 % 101) * 1e-9, i, handlers[i & 63]))
        if len(queue) > 32:
            pop(queue)[2]()
        t += 1e-9
    while queue:
        pop(queue)[2]()
    return total[0]


def calibrate(samples: int = 30) -> float:
    """The machine's current speed: the fastest of ``samples`` runs of
    the calibration loop, in ms of this thread's CPU time.

    The machine switches between a fast and a slow state for seconds to
    minutes at a time.  Dividing an operation's time by a calibration
    taken on the same core just before it removes most of that drift;
    multiplying by :data:`CAL_REF_MS` keeps the result in ms.
    """
    best = float("inf")
    for _ in range(samples):
        t0 = time.thread_time()
        calibration_loop()
        best = min(best, time.thread_time() - t0)
    return 1e3 * best


def normalised(value: float, cal_ms: float,
               ref_ms: float = CAL_REF_MS) -> float:
    """``value`` scaled to the reference machine's speed, given the
    calibration ``cal_ms`` measured with it (reference: ``ref_ms``)."""
    return value * ref_ms / cal_ms


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def mismatch_count(got: List[str], want: List[str]) -> int:
    """Lanes whose digest differs (a missing lane counts as a mismatch)."""
    bad = sum(1 for g, w in zip(got, want) if g != w)
    return bad + abs(len(got) - len(want))
