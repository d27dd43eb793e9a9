"""Unit tests for latches, flip-flops, mutex, synchronizers, clocks, timers."""

import pytest

from repro.digital import (
    Clock,
    DFlipFlop,
    HandshakeTimer,
    MinOnTimeGuard,
    Mutex,
    PhaseActivator,
    RestartableTimer,
    SRLatch,
    SynchronizerBank,
    TwoFlopSynchronizer,
)
from repro.sim import NS, US, Signal, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestSRLatch:
    def test_set_reset(self, sim):
        s, r = Signal(sim, "s"), Signal(sim, "r")
        latch = SRLatch(sim, "q", s, r, delay=1 * NS)
        s.set(True)
        sim.run(2 * NS)
        assert latch.q.value
        s.set(False)
        sim.run(2 * NS)
        assert latch.q.value  # hold
        r.set(True)
        sim.run(2 * NS)
        assert not latch.q.value

    def test_set_dominates(self, sim):
        s, r = Signal(sim, "s"), Signal(sim, "r")
        latch = SRLatch(sim, "q", s, r, delay=1 * NS, set_dominates=True)
        r.set(True)
        s.set(True)
        sim.run(2 * NS)
        assert latch.q.value


class TestDFlipFlop:
    def test_captures_on_rising_edge(self, sim):
        d, clk = Signal(sim, "d"), Signal(sim, "clk")
        ff = DFlipFlop(sim, "q", d, clk, t_clk_q=0.5 * NS)
        d.set(True, 1 * NS)
        clk.set(True, 5 * NS)
        sim.run(10 * NS)
        assert ff.q.value
        assert ff.metastable_events == 0

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
        assert sim.pending_events() == 0
        assert sim.events_delivered == 1
        assert ff.inflight == 0
        sim.run(10 * NS)
        assert sim.events_delivered == 1
        assert not ff.q.value
        assert ff.q.history == [(0.0, False)]

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


class TestMutex:
    def test_single_request_granted(self, sim):
        r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
        mtx = Mutex(sim, "mtx", r1, r2, delay=1 * NS)
        r1.set(True)
        sim.run(5 * NS)
        assert mtx.g1.value
        assert not mtx.g2.value

    def test_mutual_exclusion_on_race(self, sim):
        r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
        mtx = Mutex(sim, "mtx", r1, r2, delay=1 * NS)
        r1.set(True, 1 * NS)
        r2.set(True, 1 * NS)
        sim.run(10 * NS)
        assert mtx.g1.value != mtx.g2.value  # exactly one grant

    def test_grants_never_overlap_across_many_races(self):
        for seed in range(20):
            sim = Simulator(seed=seed)
            r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
            mtx = Mutex(sim, "mtx", r1, r2, delay=0.5 * NS)

            overlap = []

            def check(_s, _v):
                if mtx.g1.value and mtx.g2.value:
                    overlap.append(sim.now)

            mtx.g1.subscribe(check)
            mtx.g2.subscribe(check)
            r1.set(True, 1 * NS)
            r2.set(True, 1.01 * NS)
            r1.set(False, 20 * NS)
            r2.set(False, 25 * NS)
            sim.run(100 * NS)
            assert overlap == []

    def test_release_passes_grant_to_waiter(self, sim):
        r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
        mtx = Mutex(sim, "mtx", r1, r2, delay=1 * NS)
        r1.set(True, 1 * NS)
        r2.set(True, 5 * NS)  # clearly later: waits
        sim.run(10 * NS)
        assert mtx.g1.value and not mtx.g2.value
        r1.set(False)
        sim.run(10 * NS)
        assert not mtx.g1.value and mtx.g2.value

    def test_metastability_counted_on_close_race(self):
        counts = 0
        for seed in range(10):
            sim = Simulator(seed=seed)
            r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
            mtx = Mutex(sim, "mtx", r1, r2, window=0.1 * NS)
            r1.set(True, 1 * NS)
            r2.set(True, 1.00001 * NS)
            sim.run(10 * NS)
            counts += mtx.metastable_events
        assert counts == 10

    def test_withdrawn_request_not_granted(self, sim):
        r1, r2 = Signal(sim, "r1"), Signal(sim, "r2")
        mtx = Mutex(sim, "mtx", r1, r2, delay=2 * NS)
        r1.set(True, 1 * NS)
        r1.set(False, 1.5 * NS)  # gives up before decision commits
        sim.run(10 * NS)
        assert not mtx.g1.value and not mtx.g2.value


class TestSynchronizer:
    def test_latency_is_one_to_two_cycles(self, sim):
        data = Signal(sim, "d")
        clk_gen = Clock(sim, "clk", period=10 * NS)
        sync = TwoFlopSynchronizer(sim, "sync", data, clk_gen.signal)
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
        assert act.rotation_period == pytest.approx(300 * NS)

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

    def test_restartable_duration_change(self, sim):
        timer = RestartableTimer(sim, "t", duration=50 * NS)
        timer.set_duration(10 * NS)
        timer.req.set(True, 1 * NS)
        sim.run(15 * NS)
        assert timer.ack.value

    def test_min_on_time_guard(self, sim):
        g = Signal(sim, "g")
        guard = MinOnTimeGuard(sim, "pmin", g, minimum=30 * NS)
        assert guard.expired.value  # nothing running yet
        g.set(True, 1 * NS)
        sim.run(20 * NS)
        assert not guard.expired.value
        sim.run(20 * NS)
        assert guard.expired.value

    def test_min_on_guard_extension_applies_once(self, sim):
        g = Signal(sim, "g")
        guard = MinOnTimeGuard(sim, "pmin", g, minimum=10 * NS)
        guard.extend_next(20 * NS)  # PEXT
        g.set(True, 1 * NS)
        sim.run(21 * NS)
        assert not guard.expired.value  # still inside 10+20 ns hold
        sim.run(15 * NS)
        assert guard.expired.value
        # second cycle: no extension
        g.set(False)
        g.set(True, 1 * NS)
        sim.run(13 * NS)
        assert guard.expired.value

    def test_guard_invalid_parameters(self, sim):
        g = Signal(sim, "g")
        with pytest.raises(ValueError):
            MinOnTimeGuard(sim, "x", g, minimum=-1.0)
        guard = MinOnTimeGuard(sim, "x", g, minimum=1 * NS)
        with pytest.raises(ValueError):
            guard.extend_next(-1.0)
