"""Unit tests for Signal and AnalogProbe."""

import pytest

from repro.sim import FALL, NS, RISE, AnalogProbe, Signal, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSignal:
    def test_initial_value(self, sim):
        assert Signal(sim, "a").value is False
        assert Signal(sim, "b", init=True).value is True

    def test_immediate_set(self, sim):
        s = Signal(sim, "s")
        s.set(True)
        assert s.value is True

    def test_delayed_set(self, sim):
        s = Signal(sim, "s")
        s.set(True, delay=5 * NS)
        assert s.value is False
        sim.run(4 * NS)
        assert s.value is False
        sim.run(2 * NS)
        assert s.value is True

    def test_bool_conversion(self, sim):
        s = Signal(sim, "s", init=True)
        assert bool(s) is True

    def test_rise_listener_fires_on_rise_only(self, sim):
        s = Signal(sim, "s")
        events = []
        s.subscribe(lambda sig, v: events.append(("rise", sim.now)), RISE)
        s.set(True, 1 * NS)
        s.set(False, 2 * NS)
        s.set(True, 3 * NS)
        sim.run(10 * NS)
        assert [e[0] for e in events] == ["rise", "rise"]

    def test_fall_listener(self, sim):
        s = Signal(sim, "s", init=True)
        falls = []
        s.subscribe(lambda sig, v: falls.append(sim.now), FALL)
        s.set(False, 2 * NS)
        sim.run(10 * NS)
        assert falls == [pytest.approx(2 * NS)]

    def test_no_notification_when_value_unchanged(self, sim):
        s = Signal(sim, "s")
        count = []
        s.subscribe(lambda sig, v: count.append(1))
        s.set(False)
        s.set(False, 1 * NS)
        sim.run(10 * NS)
        assert count == []

    def test_unsubscribe(self, sim):
        s = Signal(sim, "s")
        seen = []
        handle = s.subscribe(lambda sig, v: seen.append(v))
        s.set(True)
        s.unsubscribe(handle)
        s.set(False)
        assert seen == [True]

    def test_unsubscribe_twice_is_noop(self, sim):
        s = Signal(sim, "s")
        handle = s.subscribe(lambda sig, v: None)
        s.unsubscribe(handle)
        s.unsubscribe(handle)  # must not raise

    def test_history_records_changes(self, sim):
        s = Signal(sim, "s")
        s.set(True, 1 * NS)
        s.set(False, 3 * NS)
        sim.run(10 * NS)
        assert list(s.times) == [0.0, pytest.approx(1 * NS),
                                 pytest.approx(3 * NS)]
        assert list(s.values) == [False, True, False]

    def test_value_at(self, sim):
        s = Signal(sim, "s")
        s.set(True, 2 * NS)
        s.set(False, 5 * NS)
        sim.run(10 * NS)
        assert s.value_at(0) is False
        assert s.value_at(3 * NS) is True
        assert s.value_at(7 * NS) is False

    def test_edges_filtering(self, sim):
        s = Signal(sim, "s")
        s.set(True, 1 * NS)
        s.set(False, 2 * NS)
        s.set(True, 3 * NS)
        sim.run(10 * NS)
        assert len(s.edges(RISE)) == 2
        assert len(s.edges(FALL)) == 1
        assert len(s.edges()) == 3

    def test_pulse(self, sim):
        s = Signal(sim, "s")
        s.pulse(width=3 * NS, delay=2 * NS)
        sim.run(1 * NS)
        assert not s.value
        sim.run(2 * NS)
        assert s.value
        sim.run(3 * NS)
        assert not s.value

    def test_toggle(self, sim):
        s = Signal(sim, "s")
        s.toggle()
        assert s.value
        s.toggle(1 * NS)
        sim.run(2 * NS)
        assert not s.value

    def test_force_does_not_notify(self, sim):
        s = Signal(sim, "s")
        seen = []
        s.subscribe(lambda sig, v: seen.append(v))
        s.force(True)
        assert s.value is True
        assert seen == []

    def test_untraced_signal_skips_history(self, sim):
        s = Signal(sim, "s", trace=False)
        s.set(True)
        assert len(s.times) == len(s.values) == 1  # the initial record

    def test_listener_may_unsubscribe_during_notification(self, sim):
        s = Signal(sim, "s")
        seen = []

        def once(sig, value):
            seen.append(value)
            sig.unsubscribe(handle)

        handle = s.subscribe(once)
        s.set(True)
        s.set(False)
        assert seen == [True]

    def test_bad_edge_kind_rejected(self, sim):
        s = Signal(sim, "s")
        with pytest.raises(ValueError):
            s.subscribe(lambda sig, v: None, edge="sideways")


class TestAnalogProbe:
    def test_max_min(self):
        p = AnalogProbe("i")
        for t, v in [(0, 0.0), (1, 2.0), (2, -1.0), (3, 0.5)]:
            p.record(t, v)
        assert p.maximum == 2.0
        assert p.minimum == -1.0
        assert p.peak_abs == 2.0

    def test_value_at_interpolates(self):
        p = AnalogProbe("v")
        p.record(0.0, 0.0)
        p.record(2.0, 4.0)
        assert p.value_at(1.0) == pytest.approx(2.0)
        assert p.value_at(-1.0) == 0.0
        assert p.value_at(5.0) == 4.0

    def test_value_at_without_trace_raises(self):
        p = AnalogProbe("v", trace=False)
        p.record(0.0, 1.0)
        with pytest.raises(ValueError):
            p.value_at(0.0)

    def test_window(self):
        p = AnalogProbe("v")
        for t in range(10):
            p.record(float(t), float(t) * 10)
        ts, vs = p.window(2.0, 5.0)
        assert ts == [2.0, 3.0, 4.0, 5.0]
        assert vs == [20.0, 30.0, 40.0, 50.0]

    def test_reset_stats_clears_running_statistics(self):
        p = AnalogProbe("v", trace=False)
        p.record(0.0, 100.0)
        p.record(1.0, 100.0)
        p.reset_stats()
        p.record(1.0, 1.0)
        p.record(2.0, 1.0)
        assert p.maximum == 1.0

    def test_untraced_probe_still_accumulates_stats(self):
        p = AnalogProbe("v", trace=False)
        p.record(0.0, 5.0)
        p.record(1.0, 5.0)
        assert len(p.times) == 0
        assert p.maximum == 5.0
