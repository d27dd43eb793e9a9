"""Unit tests for flip-flops, synchronizers, clocks and timers."""

import math

import pytest

from repro.digital import (
    DEFAULT_GATE_DELAY,
    Clock,
    DFlipFlop,
    HandshakeTimer,
    PhaseActivator,
    SynchronizerBank,
)
from repro.digital.synchronizer import T_CLK_Q
from repro.sim import NS, US, Signal, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestDFlipFlop:
    def test_captures_on_rising_edge(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk, t_clk_q=0.5 * NS)
        d.set(True, 1 * NS)
        clk.set(True, 5 * NS)
        sim.run(10 * NS)
        assert ff.q.value
        assert ff.metastable_events == 0

    def test_default_clock_to_q_is_the_synchronizers(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk)
        d.set(True, 1 * NS)
        clk.set(True, 5 * NS)
        sim.run(10 * NS)
        assert DEFAULT_GATE_DELAY == T_CLK_Q == pytest.approx(0.1 * NS)
        assert ff.q.edges("rise") == pytest.approx(
            [5 * NS + DEFAULT_GATE_DELAY], abs=1e-15)

    def test_no_capture_on_falling_edge(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk", init=True)
        ff = DFlipFlop(sim, "q", d, clk)
        d.set(True, 1 * NS)
        clk.set(False, 5 * NS)
        sim.run(10 * NS)
        assert not ff.q.value

    def test_setup_violation_counts_metastable(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk, t_setup=1 * NS)
        d.set(True, 4.9995 * NS)  # 0.5 ps before the edge: violation
        clk.set(True, 5 * NS)
        sim.run(20 * NS)
        assert ff.metastable_events == 1

    def test_clean_capture_outside_setup_window(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk, t_setup=0.1 * NS)
        d.set(True, 1 * NS)
        clk.set(True, 5 * NS)
        sim.run(10 * NS)
        assert ff.metastable_events == 0
        assert ff.q.value

    def test_clocking_equal_d_schedules_nothing(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk)
        clk.set(True, 5 * NS)
        sim.run_until(5 * NS)          # delivers only the clock edge
        sim.run_before([math.inf], 0)  # fires any live event left
        assert sim.events_delivered == 1
        assert ff.inflight == 0
        sim.run(10 * NS)
        assert sim.events_delivered == 1
        assert not ff.q.value
        assert list(ff.q.times) == [0.0]
        assert list(ff.q.values) == [False]

    def test_d_change_reaches_q_after_clk_to_q(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk, t_clk_q=0.5 * NS)
        d.set(True, 1 * NS)
        clk.set(True, 5 * NS)
        sim.run_until(5.4 * NS)
        assert not ff.q.value and ff.inflight == 1
        sim.run_until(5.6 * NS)
        assert ff.q.value and ff.inflight == 0
        assert ff.q.edges("rise") == [pytest.approx(5.5 * NS)]

    def test_equal_sample_still_schedules_behind_metastable_settle(self):
        # A metastable capture resolves late, possibly to the wrong value;
        # a later clean sample equal to the *current* Q must still be
        # scheduled, or Q would keep the random capture.
        for seed in range(10):
            sim = Simulator(seed=seed)
            d, clk = Signal(sim, "d"), Signal(sim, "clk")
            ff = DFlipFlop(sim, "q", d, clk, t_clk_q=10 * NS,
                           t_setup=1 * NS)
            d.set(True, 4.5 * NS)          # inside the setup window
            clk.set(True, 5 * NS)
            d.set(False, 6 * NS)
            clk.set(False, 7 * NS)
            clk.set(True, 8 * NS)          # clean sample: D == Q == False
            sim.run_until(8 * NS)
            assert ff.metastable_events == 1
            assert not ff.q.value
            assert ff.inflight == 2
            sim.run(30 * NS)
            assert ff.inflight == 0
            assert not ff.q.value


class TestSynchronizer:
    def test_latency_is_one_to_two_cycles(self, sim):
        data = Signal(sim, "d")
        clk_gen = Clock(sim, "clk", period=10 * NS)
        sync = SynchronizerBank(sim, "bank", clk_gen.signal).add("sync", data)
        data.set(True, 12 * NS)  # just after the edge at 10 ns
        sim.run(60 * NS)
        rises = sync.output.edges("rise")
        assert len(rises) == 1
        # captured at edges 20 and 30 ns -> output right after 30 ns
        assert 30 * NS <= rises[0] <= 32 * NS

    def test_bank_tracks_inputs(self, sim):
        a, b = Signal(sim, "a"), Signal(sim, "b")
        clk_gen = Clock(sim, "clk", period=10 * NS)
        bank = SynchronizerBank(sim, "bank", clk_gen.signal, [a, b])
        a.set(True, 1 * NS)
        sim.run(50 * NS)
        assert bank.output("a").value
        assert not bank.output("b").value
        assert bank.total_metastable_events() >= 0


class TestClock:
    def test_period_and_duty(self, sim):
        clk = Clock(sim, "clk", period=10 * NS, duty=0.3, trace=True)
        sim.run(35 * NS)
        rises = clk.signal.edges("rise")
        falls = clk.signal.edges("fall")
        assert rises == pytest.approx([0.0, 10 * NS, 20 * NS, 30 * NS])
        assert falls == pytest.approx([3 * NS, 13 * NS, 23 * NS, 33 * NS])

    def test_phase_offset(self, sim):
        clk = Clock(sim, "clk", period=10 * NS, phase=4 * NS, trace=True)
        sim.run(15 * NS)
        assert clk.signal.edges("rise")[0] == pytest.approx(4 * NS)

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, "clk", period=0.0)
        with pytest.raises(ValueError):
            Clock(sim, "clk", period=1 * NS, duty=1.5)


class TestPhaseActivator:
    def test_round_robin_rotation(self, sim):
        act = PhaseActivator(sim, "pa", n_phases=3, dwell=100 * NS)
        sim.run(350 * NS)
        # each phase activated at k*dwell
        for k in range(3):
            rises = act.act[k].edges("rise")
            assert rises[0] == pytest.approx(k * 100 * NS, abs=1 * NS)

    def test_non_overlap(self, sim):
        act = PhaseActivator(sim, "pa", n_phases=4, dwell=50 * NS)
        overlaps = []

        def check(_s, _v):
            if sum(int(a.value) for a in act.act) > 1:
                overlaps.append(sim.now)

        for a in act.act:
            a.subscribe(check)
        sim.run(2 * US)
        assert overlaps == []

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            PhaseActivator(sim, "pa", n_phases=0, dwell=1 * NS)
        with pytest.raises(ValueError):
            PhaseActivator(sim, "pa", n_phases=2, dwell=-1.0)
        with pytest.raises(ValueError):
            PhaseActivator(sim, "pa", n_phases=2, dwell=1 * NS, gap_fraction=1.0)


class TestTimers:
    def test_handshake_timer_cycle(self, sim):
        timer = HandshakeTimer(sim, "t", duration=50 * NS)
        timer.req.set(True, 1 * NS)
        sim.run(30 * NS)
        assert not timer.ack.value
        assert timer.running
        sim.run(30 * NS)
        assert timer.ack.value
        timer.req.set(False)
        sim.run(5 * NS)
        assert not timer.ack.value

    def test_early_req_drop_cancels(self, sim):
        timer = HandshakeTimer(sim, "t", duration=50 * NS)
        timer.req.set(True, 1 * NS)
        timer.req.set(False, 10 * NS)
        sim.run(200 * NS)
        assert not timer.ack.value

    def test_negative_duration_rejected(self, sim):
        with pytest.raises(ValueError):
            HandshakeTimer(sim, "t", duration=-1.0)
