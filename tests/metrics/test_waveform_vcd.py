"""Unit tests for waveform metrics and VCD export."""

import io

import pytest

from repro.metrics import (
    ascii_waveform,
    duty_in_window,
    edge_count,
    episodes,
    overshoot,
    ripple,
    sample_series,
    settling_time,
    undershoot,
)
from repro.sim import NS, AnalogProbe, Signal, Simulator, write_vcd
from repro.sim.vcd import _identifier


def _probe(points):
    p = AnalogProbe("v")
    for t, v in points:
        p.record(t, v)
    return p


class TestWaveformMetrics:
    def test_ripple(self):
        p = _probe([(0, 3.0), (1, 3.4), (2, 3.1), (3, 3.3)])
        assert ripple(p, 0, 3) == pytest.approx(0.4)
        assert ripple(p, 2, 3) == pytest.approx(0.2)

    def test_ripple_empty_window_raises_named_error(self):
        p = _probe([(0, 1.0)])
        with pytest.raises(ValueError, match=r"'v'.*no samples"):
            ripple(p, 5, 6)

    def test_overshoot_and_undershoot_empty_window_name_the_probe(self):
        p = _probe([(0, 1.0)])
        with pytest.raises(ValueError, match="'v'"):
            overshoot(p, 1.0, 5, 6)
        with pytest.raises(ValueError, match="'v'"):
            undershoot(p, 1.0, 5, 6)

    def test_overshoot_and_undershoot(self):
        p = _probe([(0, 3.3), (1, 3.7), (2, 3.0)])
        assert overshoot(p, 3.3, 0, 2) == pytest.approx(0.4)
        assert undershoot(p, 3.3, 0, 2) == pytest.approx(0.3)
        assert overshoot(p, 4.0, 0, 2) == 0.0

    def test_settling_time(self):
        p = _probe([(0, 0.0), (1, 2.0), (2, 3.2), (3, 3.31), (4, 3.29)])
        t = settling_time(p, target=3.3, tolerance=0.05)
        assert t == pytest.approx(3.0)

    def test_settling_never(self):
        p = _probe([(0, 0.0), (1, 1.0)])
        assert settling_time(p, 3.3, 0.01) is None

    def test_settling_resets_on_excursion(self):
        p = _probe([(0, 3.3), (1, 3.3), (2, 5.0), (3, 3.3)])
        assert settling_time(p, 3.3, 0.1) == pytest.approx(3.0)

    def test_sample_series(self):
        p = _probe([(0, 0.0), (10, 10.0)])
        ts, vs = sample_series(p, 0, 10, 11)
        assert vs[5] == pytest.approx(5.0)
        with pytest.raises(ValueError):
            sample_series(p, 0, 10, 1)

    def test_ascii_waveform_renders(self):
        p = _probe([(i * 1e-6, float(i % 5)) for i in range(50)])
        art = ascii_waveform(p, 0, 49e-6, width=40, height=8, title="T")
        assert art.startswith("T")
        assert "*" in art


class TestSignalWindows:
    def test_edge_count_and_episodes(self):
        sim = Simulator()
        s = Signal(sim, "s")
        s.set(True, 10 * NS)
        s.set(False, 20 * NS)
        s.set(True, 30 * NS)
        sim.run(50 * NS)
        assert edge_count(s, "rise", 0, 50 * NS) == 2
        assert edge_count(s, "rise", 15 * NS, 50 * NS) == 1
        eps = episodes(s, 0, 50 * NS)
        assert len(eps) == 2
        assert eps[0] == (pytest.approx(10 * NS), pytest.approx(20 * NS))
        # the still-high episode is clipped at the window end
        assert eps[1][1] == pytest.approx(50 * NS)

    def test_episode_active_at_window_start(self):
        sim = Simulator()
        s = Signal(sim, "s", init=True)
        s.set(False, 10 * NS)
        sim.run(20 * NS)
        eps = episodes(s, 5 * NS, 20 * NS)
        assert eps[0][0] == pytest.approx(5 * NS)

    def test_duty(self):
        sim = Simulator()
        s = Signal(sim, "s")
        s.set(True, 10 * NS)
        s.set(False, 30 * NS)
        sim.run(40 * NS)
        assert duty_in_window(s, 0, 40 * NS) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="'s'"):
            duty_in_window(s, 10 * NS, 10 * NS)


class TestTraceSetMetrics:
    """The same metrics read TraceSet channel views (ISSUE-5)."""

    def _trace(self):
        from repro.trace import TraceSet
        ts = TraceSet().add_grid("t", [0.0, 1.0, 2.0, 3.0])
        ts.add_channel("v_load", [3.0, 3.4, 3.1, 3.3], grid="t")
        ts.add_grid("hl", [0.0, 0.5, 1.5, 2.5])
        ts.add_channel("hl", [False, True, False, True], grid="hl")
        ts.add_grid("gp0", [0.0, 0.8, 1.2, 2.9])
        ts.add_channel("gp0", [False, True, False, True], grid="gp0")
        return ts

    def test_analog_metrics_on_views(self):
        view = self._trace().probe("v_load")
        assert ripple(view, 0, 3) == pytest.approx(0.4)
        assert overshoot(view, 3.3, 0, 3) == pytest.approx(0.1)
        assert undershoot(view, 3.3, 0, 3) == pytest.approx(0.3)
        assert settling_time(view, 3.2, 0.21) == pytest.approx(0.0)
        _, vs = sample_series(view, 0, 3, 4)
        assert vs == pytest.approx([3.0, 3.4, 3.1, 3.3])

    def test_empty_window_on_view_names_the_channel(self):
        with pytest.raises(ValueError, match="'v_load'"):
            ripple(self._trace().probe("v_load"), 10, 11)

    def test_signal_windows_on_digital_views(self):
        hl = self._trace().probe("hl")
        assert edge_count(hl, "rise", 0, 3) == 2
        eps = episodes(hl, 0, 3)
        assert eps == [(0.5, 1.5), (2.5, 3)]
        assert duty_in_window(hl, 0, 3) == pytest.approx(1.5 / 3)

    def test_reactions_from_trace(self):
        from repro.metrics import (reactions_from_trace,
                                   worst_reaction_from_trace)
        ts = self._trace()
        latencies = reactions_from_trace(ts, "hl", "gp0",
                                         response_edge="rise")
        assert [m.latency for m in latencies] == \
            pytest.approx([0.3, 0.4])
        worst = worst_reaction_from_trace(ts, "hl", "gp0",
                                          response_edge="rise")
        assert worst.latency == pytest.approx(0.4)
        with pytest.raises(ValueError, match="'nope'"):
            reactions_from_trace(ts, "nope", "gp0")
        with pytest.raises(ValueError, match="'hl'->'gp0'"):
            worst_reaction_from_trace(ts, "hl", "gp0",
                                      t_start=5.0)


class TestVCD:
    def test_identifier_uniqueness(self):
        ids = {_identifier(i) for i in range(500)}
        assert len(ids) == 500

    def test_write_vcd_document(self):
        sim = Simulator()
        s = Signal(sim, "gp0")
        p = AnalogProbe("v_load")
        s.set(True, 5 * NS)
        p.record(0.0, 0.0)
        p.record(10 * NS, 3.3)
        sim.run(20 * NS)
        out = io.StringIO()
        write_vcd(out, [s, p])
        text = out.getvalue()
        assert "$timescale 1ps $end" in text
        assert "$var wire 1" in text
        assert "$var real 64" in text
        assert "#5000" in text      # the 5 ns edge, in ps ticks
        assert "r3.3" in text

    def test_changes_time_ordered(self):
        sim = Simulator()
        a, b = Signal(sim, "a"), Signal(sim, "b")
        a.set(True, 7 * NS)
        b.set(True, 3 * NS)
        sim.run(10 * NS)
        out = io.StringIO()
        write_vcd(out, [a, b])
        lines = out.getvalue().splitlines()
        stamps = [int(l[1:]) for l in lines if l.startswith("#")]
        assert stamps == sorted(stamps)

    def test_bad_timescale_rejected(self):
        with pytest.raises(ValueError):
            write_vcd(io.StringIO(), [], timescale="1fs")
