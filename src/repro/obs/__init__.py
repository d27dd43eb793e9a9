"""``repro.obs`` — spans, metrics, and run receipts (stdlib-only).

One shared vocabulary for what the stack is doing and what it costs:

- :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and fixed-bucket histograms with deterministic cross-process
  merges (worker deltas fold into the coordinator);
- :mod:`repro.obs.spans` — a span tracer with contextvar propagation;
  spans recorded inside ``ProcessPoolExecutor`` workers ship back with
  each shard and are re-parented under the coordinator's sweep span;
- :mod:`repro.obs.export` — Prometheus text exposition (``GET
  /v1/metrics`` on the sweep server) and Chrome trace-event JSON
  (``Session.last_trace_events()``, loadable in ``chrome://tracing`` /
  Perfetto);
- :mod:`repro.obs.receipt` — per-sweep provenance receipts (config
  hashes, code fingerprint, cache hit ratio, phase wall times, artifact
  paths), published by a writable result cache and returned in the
  serve job ``done`` event.

Observability is **provably inert**: nothing here flows into cache or
lockstep keys (machine-checked by lint rule D06), the ``REPRO_OBS=off``
kill switch restores the uninstrumented behaviour with zero clock
reads, and the differential tests lock results bit-identical on/off.
"""

from .export import chrome_trace_events, parse_prometheus_text, prometheus_text
from .metrics import (DEFAULT_BUCKETS, GLOBAL, Counter, Gauge, Histogram,
                      MetricsRegistry, NULL_INSTRUMENT)
from .receipt import (RECEIPT_SCHEMA, PhaseClock, build_receipt, load_receipt,
                      sweep_id_for)
from .spans import (Span, Trace, adopt_spans, current_trace, enabled,
                    ensure_trace, merge_metrics, metrics_baseline,
                    metrics_delta, new_trace, now, set_enabled, span)

__all__ = [
    "enabled", "set_enabled", "now",
    "counter", "gauge", "histogram",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "GLOBAL", "NULL_INSTRUMENT",
    "span", "Span", "Trace", "current_trace", "ensure_trace", "new_trace",
    "adopt_spans", "metrics_baseline", "metrics_delta", "merge_metrics",
    "prometheus_text", "parse_prometheus_text", "chrome_trace_events",
    "PhaseClock", "RECEIPT_SCHEMA", "build_receipt", "load_receipt",
    "sweep_id_for",
]


def counter(name: str, help_text: str = "", **labels):
    """The named counter — or the shared null instrument when the kill
    switch is off, so call sites stay unconditional and inert."""
    if not enabled():
        return NULL_INSTRUMENT
    return GLOBAL.counter(name, help_text, **labels)


def gauge(name: str, help_text: str = "", **labels):
    if not enabled():
        return NULL_INSTRUMENT
    return GLOBAL.gauge(name, help_text, **labels)


def histogram(name: str, help_text: str = "", buckets=DEFAULT_BUCKETS,
              **labels):
    if not enabled():
        return NULL_INSTRUMENT
    return GLOBAL.histogram(name, help_text, buckets=buckets, **labels)
