"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import NS, US, SimulationError, Simulator


def test_schedule_and_run_until_fires_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(3 * NS, lambda: fired.append("c"))
    sim.schedule(1 * NS, lambda: fired.append("a"))
    sim.schedule(2 * NS, lambda: fired.append("b"))
    sim.run_until(1 * US)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(5 * NS, lambda tag=tag: fired.append(tag))
    sim.run(1 * US)
    assert fired == list("abcde")


def test_now_advances_to_event_time_then_t_end():
    sim = Simulator()
    seen = []
    sim.schedule(7 * NS, lambda: seen.append(sim.now))
    sim.run_until(100 * NS)
    assert seen == [pytest.approx(7 * NS)]
    assert sim.now == pytest.approx(100 * NS)


def test_run_until_excludes_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(50 * NS, lambda: fired.append("late"))
    sim.run_until(10 * NS)
    assert fired == []
    sim.run_until(60 * NS)
    assert fired == ["late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1 * NS, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.run_until(10 * NS)
    with pytest.raises(SimulationError):
        sim.schedule_at(5 * NS, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(10 * NS)
    with pytest.raises(SimulationError):
        sim.run_until(5 * NS)


def test_event_cancellation():
    sim = Simulator()
    fired = []
    event = sim.schedule(5 * NS, lambda: fired.append("x"))
    event.cancel()
    sim.run(1 * US)
    assert fired == []


def test_events_scheduled_during_run_fire_same_pass():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1 * NS, lambda: fired.append("second"))

    sim.schedule(1 * NS, first)
    sim.run_until(10 * NS)
    assert fired == ["first", "second"]


def test_zero_delay_event_from_within_event_fires_at_same_time():
    sim = Simulator()
    times = []

    def outer():
        sim.schedule(0.0, lambda: times.append(sim.now))

    sim.schedule(2 * NS, outer)
    sim.run(1 * US)
    assert times == [pytest.approx(2 * NS)]


def test_pending_events_counts_live_only():
    sim = Simulator()
    e1 = sim.schedule(1 * NS, lambda: None)
    sim.schedule(2 * NS, lambda: None)
    assert sim.pending_events() == 2
    e1.cancel()
    assert sim.pending_events() == 1


def test_run_all_drains_queue():
    sim = Simulator()
    fired = []
    sim.schedule(1 * NS, lambda: fired.append(1))
    sim.schedule(9 * NS, lambda: fired.append(2))
    sim.run_all()
    assert fired == [1, 2]
    assert sim.pending_events() == 0


def test_run_all_livelock_guard():
    sim = Simulator()

    def respawn():
        sim.schedule(1 * NS, respawn)

    sim.schedule(1 * NS, respawn)
    with pytest.raises(SimulationError):
        sim.run_all(max_events=100)


def test_rng_determinism():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


def test_rng_seed_variation():
    a = Simulator(seed=1)
    b = Simulator(seed=2)
    assert a.rng.random() != b.rng.random()


# ---------------------------------------------------------------------------
# next_event_time / run_one_before edge cases (the gating fast-forward
# machinery leans on these: equal-time ties, cancelled heads, empty heap)
# ---------------------------------------------------------------------------
def test_next_event_time_equal_time_ties():
    sim = Simulator()
    events = [sim.schedule(5 * NS, lambda: None) for _ in range(3)]
    assert sim.next_event_time() == pytest.approx(5 * NS)
    # cancelling ties one by one never changes the answer until the
    # last one goes — every tied entry carries the same timestamp
    events[0].cancel()
    assert sim.next_event_time() == pytest.approx(5 * NS)
    events[2].cancel()
    assert sim.next_event_time() == pytest.approx(5 * NS)
    events[1].cancel()
    assert sim.next_event_time() is None


def test_next_event_time_pops_cancelled_heads_lazily():
    sim = Simulator()
    head = sim.schedule(1 * NS, lambda: None)
    sim.schedule(2 * NS, lambda: None)
    head.cancel()
    assert len(sim._queue) == 2
    assert sim.next_event_time() == pytest.approx(2 * NS)
    # the cancelled head was evicted, not just skipped over
    assert len(sim._queue) == 1


def test_next_event_time_all_cancelled_is_empty():
    sim = Simulator()
    for ev in [sim.schedule(k * NS, lambda: None) for k in (1, 2, 3)]:
        ev.cancel()
    assert sim.next_event_time() is None
    assert sim._queue == []


def test_run_one_before_fires_ties_fifo_one_at_a_time():
    sim = Simulator()
    fired = []
    for tag in "ab":
        sim.schedule(5 * NS, lambda tag=tag: fired.append(tag))
    assert sim.run_one_before(10 * NS) is True
    assert fired == ["a"]
    assert sim.now == pytest.approx(5 * NS)
    assert sim.run_one_before(10 * NS) is True
    assert fired == ["a", "b"]


def test_run_one_before_limit_is_strict():
    sim = Simulator()
    fired = []
    sim.schedule(5 * NS, lambda: fired.append(1))
    assert sim.run_one_before(5 * NS) is False
    assert fired == []
    assert sim.run_one_before(5 * NS + 1e-12) is True
    assert fired == [1]


def test_run_one_before_empty_heap():
    sim = Simulator()
    assert sim.run_one_before(1 * US) is False
    assert sim.now == 0.0


def test_run_one_before_skips_cancelled_heads():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1 * NS, lambda: fired.append("dead"))
    sim.schedule(2 * NS, lambda: fired.append("live"))
    dead.cancel()
    assert sim.run_one_before(10 * NS) is True
    assert fired == ["live"]


def test_events_delivered_counts_only_live_events():
    sim = Simulator()
    dead = sim.schedule(1 * NS, lambda: None)
    sim.schedule(2 * NS, lambda: None)
    sim.schedule(3 * NS, lambda: None)
    dead.cancel()
    sim.run_until(2.5 * NS)
    assert sim.events_delivered == 1
    assert sim.run_one_before(1 * US) is True
    assert sim.events_delivered == 2
