"""The metrics registry: instruments, snapshots, the worker delta/merge
protocol, and the Prometheus exposition round-trip."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    MetricsRegistry,
    parse_prometheus_text,
    prometheus_text,
)


@pytest.fixture()
def reg():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, reg):
        c = reg.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2)
        assert c.snapshot() == 3

    def test_counter_rejects_negative(self, reg):
        with pytest.raises(ValueError):
            reg.counter("jobs_total").inc(-1)

    def test_gauge_moves_both_ways(self, reg):
        g = reg.gauge("workers")
        g.set(4)
        g.dec()
        g.inc(2)
        assert g.snapshot() == 5

    def test_histogram_buckets_fixed_and_cumulative_sum(self, reg):
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [1, 1, 1]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_labels_key_distinct_series(self, reg):
        reg.counter("loads", outcome="hit").inc(3)
        reg.counter("loads", outcome="miss").inc()
        snap = reg.snapshot()
        series = snap["loads"]["series"]
        assert series['{outcome="hit"}'] == 3
        assert series['{outcome="miss"}'] == 1

    def test_kind_collision_rejected(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_kind_collision_rejected_after_a_warm_lookup(self, reg):
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.gauge("x", a="1")

    def test_label_order_and_spelling_name_one_series(self, reg):
        """Labels key a series by their sorted, stringified pairs, in
        whatever order or type a call spells them."""
        first = reg.counter("x", a=1, b=2)
        assert reg.counter("x", b=2, a=1) is first
        assert reg.counter("x", a="1", b="2") is first
        assert reg.counter("x", b="2", a="1") is first
        assert reg.counter("y", flag=True) is not reg.counter("y", flag=1)
        assert reg.counter("y", flag=1) is reg.counter("y", flag="1")

    def test_null_instrument_swallows_everything(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.set(3)
        NULL_INSTRUMENT.observe(1.0)
        NULL_INSTRUMENT.dec(2)


class TestDeltaMerge:
    """The fork-safe worker protocol: snapshot-baseline, diff, merge."""

    def test_diff_is_movement_since_baseline(self, reg):
        reg.counter("n").inc(5)
        base = reg.snapshot()
        reg.counter("n").inc(2)
        delta = reg.diff(base)
        assert delta["n"]["series"][""] == 2

    def test_merge_folds_counters_and_histograms(self, reg):
        reg.counter("n").inc(1)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.counter("n").inc(3)
        other.histogram("h", buckets=(1.0,)).observe(2.0)
        reg.merge(other.diff(None))
        snap = reg.snapshot()
        assert snap["n"]["series"][""] == 4
        hist = snap["h"]["series"][""]
        assert hist["count"] == 2
        assert hist["buckets"] == [1, 1]

    def test_gauges_never_cross_processes(self, reg):
        reg.gauge("w").set(7)
        assert "w" not in reg.diff(None)

    def test_merge_requires_identical_bounds(self, reg):
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            reg.merge(other.diff(None))

    def test_snapshot_is_plain_sorted_data(self, reg):
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == reg.snapshot()


class TestExposition:
    def test_round_trip_through_parser(self, reg):
        reg.counter("repro_sweeps_total", "sweeps run").inc(2)
        reg.histogram("repro_sweep_seconds", buckets=(0.1, 1.0)).observe(0.5)
        samples = parse_prometheus_text(prometheus_text(reg))
        assert samples["repro_sweeps_total"] == 2
        assert samples['repro_sweep_seconds_bucket{le="1"}'] == 1
        assert samples['repro_sweep_seconds_bucket{le="+Inf"}'] == 1
        assert samples["repro_sweep_seconds_count"] == 1

    def test_exposition_always_carries_kill_switch_gauge(self, reg):
        samples = parse_prometheus_text(prometheus_text(reg))
        assert samples["repro_obs_enabled"] == 1

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x not-a-number\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# MALFORMED\n")

    def test_global_registry_exposes_core_catalogue(self):
        samples = parse_prometheus_text(prometheus_text())
        names = {series.split("{")[0] for series in samples}
        for expected in ("repro_sweeps_total", "repro_lanes_total",
                         "repro_cache_load_total",
                         "repro_cache_store_total",
                         "repro_inflight_claims_total",
                         "repro_serve_jobs_total",
                         "repro_receipts_written_total",
                         "repro_spans_recorded_total",
                         "repro_workers", "repro_obs_enabled"):
            assert any(n.startswith(expected) for n in names), expected
        assert len(names) >= 10

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
