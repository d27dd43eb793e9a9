"""Per-layer attribution from outside the program (stdlib only).

Two instruments, both installed from the benchmark's own files so that
no source under ``src/`` changes:

- :class:`Spans` wraps call timers around public entry points of each
  layer.  They are installed on the classes before a batch or system is
  built, because the fused vector tick hoists bound methods when it is
  first built.  A span's self time is its duration minus the time of the
  spans nested in it; stacks are per thread, so the sweep server's job
  and request threads each keep their own nesting.
- :func:`profile_split` folds a deterministic ``cProfile`` into one self
  time and one exact call count per package.  Time in the standard
  library and in built-ins goes to the package that called it (NumPy
  built-ins go to ``numpy``; blocking waits go to ``idle``).
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name).  One span name may cover the
#: vector and the scalar twin of an entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.session.session", "Session.sweep", "session.sweep"),
    ("repro.session.cache", "code_fingerprint", "session.fingerprint"),
    ("repro.session.session", "code_fingerprint", "session.fingerprint"),
    ("repro.session.cache", "ResultCache.load", "session.cache_load"),
    ("repro.session.cache", "ResultCache.store", "session.cache_store"),
    ("repro.scenarios.engine", "VectorBatch.__init__", "scenarios.assemble"),
    ("repro.scenarios.vector_solver", "VectorizedSolver.advance_to",
     "scenarios.drive"),
    ("repro.sim.core", "Simulator.run_until", "sim.deliver"),
    ("repro.sim.core", "Simulator.run_one_before", "sim.deliver"),
    ("repro.scenarios.vector_stage", "VectorizedPowerStage.step",
     "analog.step"),
    ("repro.analog.buck", "MultiphasePowerStage.step", "analog.step"),
    ("repro.scenarios.vector_solver", "VectorComparatorBank.sample",
     "analog.sample"),
    ("repro.analog.sensors", "SensorBank.sample_all", "analog.sample"),
    ("repro.system", "BuckSystem.trace_set", "trace.build"),
    ("repro.scenarios.engine", "ScenarioLane.trace_set", "trace.build"),
)

#: the program's layers, named after its packages under ``src/repro/``
LAYERS = ("sim", "digital", "a2a", "control", "analog", "scenarios",
          "trace", "session", "serve", "obs")

#: built-ins whose time is a thread waiting, not working: locks and
#: queues (an idle job thread), and socket reads (a request thread
#: waiting for its client)
_IDLE_TAGS = ("'acquire' of '_thread", "'get' of '_queue", "select.",
              "'poll' of", "'recv_into' of", "'readline' of '_io",
              "'readinto' of '_io", "'accept' of", "time.sleep")


class Spans:
    """Call timers around :data:`ENTRY_POINTS`; ``install`` /
    ``uninstall`` patch and restore the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[float]]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _state(self) -> Tuple[List[float], Dict[str, List[float]]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        get_state = self._state

        def timed(*args, **kwargs):
            stack, table = get_state()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - child
                if stack:
                    stack[-1] += dur

        return timed

    def install(self) -> "Spans":
        wrapped: Dict[int, Callable] = {}
        for module_name, path, name in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original)
            setattr(owner, attr, wrapped[id(original)])
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{span: {"calls", "total_s", "self_s"}}`` over all threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s) in list(table.items()):
                row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
        return out


def bucket_of(filename: str) -> str:
    """The layer (or ``numpy`` / ``other``) a source file belongs to."""
    norm = filename.replace("\\", "/")
    at = norm.rfind("/repro/")
    if at >= 0:
        head, sep, _ = norm[at + len("/repro/"):].partition("/")
        return head if sep and head in LAYERS else "other"
    if "/numpy/" in norm:
        return "numpy"
    return "other"


def profile_split(stats: Dict[Tuple, Tuple]) -> Dict[str, Any]:
    """Fold ``pstats.Stats(...).stats`` into per-bucket self seconds and
    exact call counts (Python functions of the bucket only), plus the
    number of ``heappop`` calls.

    Time in code outside the program (the standard library, built-ins)
    goes to the layer that called it, split over its callers by the time
    spent through each call edge and followed up until a layer's own
    function is reached; what no layer called stays in ``other``.
    """
    owners: Dict[Tuple, Dict[str, float]] = {}

    def owner(func: Tuple, depth: int = 0) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        bucket = "other" if func[0] == "~" else bucket_of(func[0])
        owners[func] = {bucket: 1.0}       # also breaks call cycles
        callers = stats[func][4] if func in stats else {}
        through = sum(row[3] for row in callers.values())
        if bucket == "other" and through > 0 and depth < 200:
            mix: Dict[str, float] = defaultdict(float)
            for caller, row in callers.items():
                for name, weight in owner(caller, depth + 1).items():
                    mix[name] += weight * row[3] / through
            owners[func] = dict(mix)
        return owners[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    heappop = 0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        filename, _line, name = func
        if filename == "~":
            if "heappop" in name:
                heappop += nc
            if any(tag in name for tag in _IDLE_TAGS):
                self_s["idle"] += tt
                continue
            if "numpy" in name:
                self_s["numpy"] += tt
                continue
        elif bucket_of(filename) != "other":
            calls[bucket_of(filename)] += nc
        for bucket, weight in owner(func).items():
            self_s[bucket] += tt * weight
    return {"self_s": dict(self_s), "calls": dict(calls),
            "heappop_calls": heappop}
