"""Process-global metrics registry: counters, gauges, histograms.

Deliberately tiny and stdlib-only.  Three properties matter more than
feature count:

* **Deterministic merges.**  Histograms use *fixed* bucket bounds chosen
  at registration, so a snapshot taken in a worker process can be merged
  into the coordinator's registry bucket-for-bucket — no re-binning, no
  order sensitivity (:meth:`MetricsRegistry.merge` sums counters and
  bucket counts; gauges are excluded from cross-process merges because
  "last write" has no deterministic meaning across processes).
* **Inert when disabled.**  :func:`repro.obs.counter` and friends return
  a shared null instrument when the ``REPRO_OBS`` kill switch is off;
  nothing below ever runs on the hot path.
* **Pre-registered core series.**  Every metric the instrumented seams
  emit is registered at import, so a Prometheus scrape of a freshly
  booted server already exposes the full (zero-valued) catalogue — and
  the exposition surface is stable, not dependent on which code paths
  have run.

The registry is thread-safe (one lock; instruments are touched a few
times per sweep lane, never per solver tick, and a repeat lookup of a
series is one dict read under it).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: default latency bucket upper bounds, seconds (+Inf is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0)

_KINDS = ("counter", "gauge", "histogram")

#: label key type: sorted (name, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter (float increments allowed)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def snapshot(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def snapshot(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative histogram over fixed bucket bounds."""

    __slots__ = ("_lock", "bounds", "_buckets", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if tuple(bounds) != tuple(sorted(bounds)):
            raise ValueError("histogram bucket bounds must be sorted")
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        self._buckets = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._buckets[slot] += 1
            self._sum += value
            self._count += 1

    def merge(self, buckets: List[int], total: float, count: int) -> None:
        """Add another histogram's bucket counts, sum and count."""
        if len(buckets) != len(self.bounds) + 1:
            raise ValueError("histogram bucket-count mismatch in merge: "
                             "bounds must be identical")
        with self._lock:
            for i, n in enumerate(buckets):
                self._buckets[i] += n
            self._sum += total
            self._count += count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"buckets": list(self._buckets), "sum": self._sum,
                    "count": self._count}


class _NullInstrument:
    """Shared no-op stand-in handed out when observability is off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class _Family(NamedTuple):
    """One named metric: kind, help text, bucket bounds, children by
    label set (the empty label set is the plain unlabelled series).
    Only :class:`MetricsRegistry` touches one, under its lock."""

    kind: str
    help: str
    buckets: Tuple[float, ...]
    children: Dict[LabelKey, Any]


class MetricsRegistry:
    """Thread-safe family registry with deterministic snapshot/merge."""

    def __init__(self, install_core: bool = True) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        #: ``(name, kind, tuple(labels.items()))`` -> the instrument the
        #: full path made, for series whose label values are all str
        #: (a non-str value stringifies, and ``1 == True`` would alias)
        self._fast: Dict[Tuple[str, str, tuple], Any] = {}
        if install_core:
            self.install_core()

    # ------------------------------------------------------------------
    def _instrument(self, name: str, kind: str, help_text: str,
                    buckets: Tuple[float, ...], labels: Mapping[str, Any]):
        """The instrument of one labelled series, registering its family
        and creating it on first use.

        A repeat lookup is one dict read keyed by the labels in call
        order; a miss (first use, another label order, an unhashable
        label, a kind clash) sorts and stringifies the labels and takes
        the full path, which still raises on the clash."""
        fast_key = (name, kind, tuple(labels.items()))
        with self._lock:
            try:
                return self._fast[fast_key]
            except (KeyError, TypeError):
                pass
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help_text, buckets, {})
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}")
            inst = family.children.get(key)
            if inst is None:
                if kind == "counter":
                    inst = Counter()
                elif kind == "gauge":
                    inst = Gauge()
                else:
                    inst = Histogram(family.buckets)
                family.children[key] = inst
            if all(type(value) is str for value in labels.values()):
                self._fast[fast_key] = inst
            return inst

    def counter(self, name: str, help_text: str = "",
                **labels: Any) -> Counter:
        return self._instrument(name, "counter", help_text, (), labels)

    def gauge(self, name: str, help_text: str = "", **labels: Any) -> Gauge:
        return self._instrument(name, "gauge", help_text, (), labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._instrument(name, "histogram", help_text,
                                tuple(buckets), labels)

    # ------------------------------------------------------------------
    # Snapshot / diff / merge (the worker -> coordinator protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of every family, deterministic ordering
        (families and label keys sorted)."""
        with self._lock:
            families = [(name, family.kind, family.help, family.buckets,
                         sorted(family.children.items()))
                        for name, family in sorted(self._families.items())]
        # each instrument is read under its own lock, after the
        # registry's is released
        return {name: {"kind": kind, "help": help_text,
                       "bounds": list(buckets),
                       "series": {_render_labels(key): inst.snapshot()
                                  for key, inst in children}}
                for name, kind, help_text, buckets, children in families}

    def diff(self, base: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Counter/histogram deltas since ``base`` (a prior
        :meth:`snapshot`).  Gauges are dropped: they carry no meaningful
        cross-process delta.  Used by forked workers, whose registry
        starts as a copy of the parent's — shipping a delta instead of a
        snapshot keeps the coordinator's merge double-count free."""
        base = base or {}
        delta: Dict[str, Any] = {}
        for name, family in self.snapshot().items():
            if family["kind"] == "gauge":
                continue
            base_series = (base.get(name) or {}).get("series", {})
            series: Dict[str, Any] = {}
            for label, value in family["series"].items():
                prior = base_series.get(label)
                if family["kind"] == "histogram":
                    prior = prior or {"buckets": [0] * len(value["buckets"]),
                                      "sum": 0.0, "count": 0}
                    changed = {
                        "buckets": [v - p for v, p in
                                    zip(value["buckets"], prior["buckets"])],
                        "sum": value["sum"] - prior["sum"],
                        "count": value["count"] - prior["count"],
                    }
                    if changed["count"]:
                        series[label] = changed
                else:
                    changed_value = value - (prior or 0.0)
                    if changed_value:
                        series[label] = changed_value
            if series:
                delta[name] = {"kind": family["kind"], "help": family["help"],
                               "bounds": family["bounds"], "series": series}
        return delta

    def merge(self, delta: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`diff` payload in: counters and bucket counts
        sum; bucket bounds must match exactly (they are fixed at
        registration, so merges are deterministic by construction)."""
        if not delta:
            return
        for name, family in sorted(delta.items()):
            kind = family["kind"]
            if kind == "gauge":
                continue
            bounds = tuple(family.get("bounds") or ())
            for label in sorted(family["series"]):
                value = family["series"][label]
                labels = _parse_labels(label)
                if kind == "histogram":
                    self.histogram(name, family.get("help", ""),
                                   buckets=bounds or DEFAULT_BUCKETS,
                                   **labels).merge(value["buckets"],
                                                   value["sum"],
                                                   value["count"])
                else:
                    self.counter(name, family.get("help", ""),
                                 **labels).inc(value)

    # ------------------------------------------------------------------
    def install_core(self) -> None:
        """Pre-register the instrumented seams' full metric catalogue so
        the exposition surface is stable from process start."""
        c, g, h = self.counter, self.gauge, self.histogram
        c("repro_sweeps_total", "sweeps through Session.sweep")
        for source in ("cache", "computed"):
            c("repro_lanes_total", "landed sweep lanes by source",
              source=source)
        for outcome in ("hit", "miss"):
            c("repro_cache_load_total", "result-cache lookups by outcome",
              outcome=outcome)
        c("repro_cache_store_total", "result-cache write-backs")
        c("repro_inflight_claims_total",
          "in-flight registry claims won (this call computes the key)")
        c("repro_inflight_waits_total",
          "lanes served by waiting on a concurrent sweep's computation")
        c("repro_solver_ticks_total", "analog solver micro-steps, all lanes")
        c("repro_events_delivered_total",
          "discrete-event kernel events delivered, all lanes")
        for kind in ("simulated", "skipped"):
            c("repro_clock_edges_total", "controller clock edges by fate",
              kind=kind)
        c("repro_receipts_written_total", "sweep receipts written to disk")
        c("repro_spans_recorded_total", "trace spans recorded")
        for state in ("queued", "running", "done", "failed"):
            c("repro_serve_jobs_total", "serve jobs by state transition",
              state=state)
        c("repro_serve_jobs_evicted_total",
          "finished serve jobs forgotten past the retention bound")
        c("repro_sse_events_dropped_total",
          "SSE events evicted from bounded job logs")
        g("repro_workers", "worker processes of the most recent sweep")
        g("repro_obs_enabled", "1 when the REPRO_OBS kill switch is on")
        h("repro_sweep_seconds", "Session.sweep wall time")
        h("repro_shard_seconds", "worker shard wall time")
        h("repro_lane_compute_seconds", "per-lane scalar compute wall time")
        h("repro_cache_load_seconds", "result-cache lookup wall time")
        h("repro_cache_store_seconds",
          "result-cache write-back wall time (includes trace serialization)")


# ---------------------------------------------------------------------------
# Label rendering (shared with the Prometheus exposition)
# ---------------------------------------------------------------------------
def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _parse_labels(label: str) -> Dict[str, str]:
    """Invert :func:`_render_labels` for the simple (unescaped) label
    values this package emits."""
    if not label:
        return {}
    out: Dict[str, str] = {}
    for pair in label.strip("{}").split(","):
        name, _, value = pair.partition("=")
        out[name] = value.strip('"')
    return out


#: the process-global registry behind :func:`repro.obs.counter` et al.
GLOBAL = MetricsRegistry()
