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


def test_rng_determinism():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


def test_rng_seed_variation():
    a = Simulator(seed=1)
    b = Simulator(seed=2)
    assert a.rng.random() != b.rng.random()


# ---------------------------------------------------------------------------
# run_one_before edge cases (the one-event form of run_before: equal-time
# ties, cancelled heads, empty heap)
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# run_before: the adaptive vector solver's one drain per lane (limit read
# from a list slot and re-read after every event)
# ---------------------------------------------------------------------------
def test_run_before_fires_ties_fifo():
    sim = Simulator()
    fired = []
    for tag in "ab":
        sim.schedule(5 * NS, lambda tag=tag: fired.append((tag, sim.now)))
    sim.run_before([10 * NS], 0)
    assert fired == [("a", pytest.approx(5 * NS)), ("b", pytest.approx(5 * NS))]
    assert sim.now == pytest.approx(5 * NS)


def test_run_before_limit_is_strict():
    sim = Simulator()
    fired = []
    sim.schedule(5 * NS, lambda: fired.append(1))
    sim.run_before([5 * NS], 0)
    assert fired == []
    assert sim.now == 0.0
    sim.run_before([5 * NS + 1e-12], 0)
    assert fired == [1]


def test_run_before_empty_heap():
    sim = Simulator()
    sim.run_before([1 * US], 0)
    assert sim.now == 0.0
    assert sim.events_delivered == 0


def test_run_before_skips_cancelled_heads():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1 * NS, lambda: fired.append("dead"))
    sim.schedule(2 * NS, lambda: fired.append("live"))
    dead.cancel()
    sim.run_before([10 * NS], 0)
    assert fired == ["live"]
    assert sim.events_delivered == 1


def test_run_before_reads_its_own_slot():
    sim = Simulator()
    fired = []
    sim.schedule(2 * NS, lambda: fired.append(2))
    sim.schedule(4 * NS, lambda: fired.append(4))
    sim.run_before([1 * NS, 3 * NS, 5 * NS], 1)
    assert fired == [2]


def test_run_before_rereads_a_limit_lowered_mid_drain():
    """A callback that lowers the limit stops the drain there: the later
    events stay queued, and a following drain to the old limit fires
    them in order."""
    sim = Simulator()
    limits = [10 * NS]
    fired = []

    def lower():
        fired.append("lower")
        limits[0] = 3 * NS

    sim.schedule(1 * NS, lambda: fired.append(1))
    sim.schedule(2 * NS, lower)
    sim.schedule(3 * NS, lambda: fired.append(3))
    sim.schedule(4 * NS, lambda: fired.append(4))
    sim.run_before(limits, 0)
    assert fired == [1, "lower"]
    assert sim.now == pytest.approx(2 * NS)
    assert sim.events_delivered == 2
    sim.run_before([10 * NS], 0)
    assert fired == [1, "lower", 3, 4]


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


def test_run_before_counts_only_live_events():
    sim = Simulator()
    dead = sim.schedule(1 * NS, lambda: None)
    sim.schedule(2 * NS, lambda: None)
    sim.schedule(3 * NS, lambda: None)
    dead.cancel()
    sim.run_before([2.5 * NS], 0)
    assert sim.events_delivered == 1
    sim.run_before([1 * US], 0)
    assert sim.events_delivered == 2


def test_shared_heap_delivers_in_global_time_order_to_owners():
    a = Simulator(seed=1)
    b = Simulator(seed=2, share_heap=a)
    fired = []

    def mark(sim, tag):
        return lambda: fired.append((tag, sim.now, a.now, b.now))

    b.schedule(3 * NS, mark(b, "b3"))
    a.schedule(5 * NS, mark(a, "a5"))
    b.schedule(1 * NS, mark(b, "b1"))
    # same-instant ties of one birth: each simulator keeps its FIFO
    # order, and the two interleave by the shared sequence counter
    for tag in ("a7x", "b7x", "a7y", "b7y"):
        owner = a if tag[0] == "a" else b
        owner.schedule(7 * NS, mark(owner, tag))

    a.run_until(10 * NS)
    assert [f[0] for f in fired] == ["b1", "b3", "a5",
                                     "a7x", "b7x", "a7y", "b7y"]
    # each handler sees its own simulator's now; the other one's now is
    # left at that simulator's last delivered event
    assert fired[0][1:] == (pytest.approx(1 * NS), 0.0, pytest.approx(1 * NS))
    assert fired[2][1:] == (pytest.approx(5 * NS), pytest.approx(5 * NS),
                            pytest.approx(3 * NS))
    assert a.events_delivered == 3
    assert b.events_delivered == 4
    assert a.now == pytest.approx(10 * NS)
    assert b.now == pytest.approx(7 * NS)


def test_shared_heap_same_instant_events_fire_by_birth_then_fifo():
    a = Simulator()
    b = Simulator(share_heap=a)
    fired = []
    b.schedule(1 * NS, lambda: None)
    a.run_until(5 * NS)           # a.now is 5 ns, b.now stays at 1 ns
    for owner, tag in ((a, "a1"), (b, "b1"), (a, "a2"), (b, "b2")):
        owner.schedule_at(20 * NS, lambda tag=tag: fired.append(tag))
    a.run_until(30 * NS)
    assert fired == ["b1", "b2", "a1", "a2"]


def test_shared_heap_run_one_before_fires_for_owner():
    a = Simulator()
    b = Simulator(share_heap=a)
    seen = []
    b.schedule(2 * NS, lambda: seen.append(b.now))
    assert a.run_one_before(5 * NS) is True
    assert seen == [pytest.approx(2 * NS)]
    assert (a.events_delivered, b.events_delivered) == (0, 1)
    assert a.now == 0.0


def test_shared_heap_run_before_fires_for_owner():
    a = Simulator()
    b = Simulator(share_heap=a)
    seen = []
    b.schedule(2 * NS, lambda: seen.append(b.now))
    a.schedule(6 * NS, lambda: seen.append(a.now))
    a.run_before([5 * NS], 0)
    assert seen == [pytest.approx(2 * NS)]
    assert (a.events_delivered, b.events_delivered) == (0, 1)
    assert a.now == 0.0


def test_events_record_birth_and_current_event():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.current)
        sim.schedule(2.0, lambda: seen.append(sim.current))

    outer = sim.schedule(1.0, first)
    sim.run_until(10.0)
    assert seen[0] is outer and outer.born == 0.0
    assert seen[1].born == 1.0 and seen[1].time == 3.0


def _same_instant(sim, tags, fired):
    for tag in tags:
        sim.schedule_at(5.0, lambda tag=tag: fired.append(tag))


def test_schedule_as_of_takes_the_fifo_place_of_its_birth():
    """Events scheduled before ``born`` go first; those scheduled at or
    after it go after, as if the new event had been queued at ``born``."""
    sim = Simulator()
    fired = []
    _same_instant(sim, "a", fired)                       # born 0
    sim.schedule(1.0, lambda: _same_instant(sim, "b", fired))
    sim.schedule(2.0, lambda: _same_instant(sim, "c", fired))
    sim.schedule(3.0, lambda: _same_instant(sim, "d", fired))
    sim.run_until(3.0)
    late = sim.schedule_as_of(5.0, lambda: fired.append("X"), born=2.0)
    assert late.born == 2.0
    sim.run_until(10.0)
    assert fired == ["a", "b", "X", "c", "d"]


def test_schedule_as_of_behind_everything_takes_a_fresh_key():
    sim = Simulator()
    fired = []
    _same_instant(sim, "ab", fired)
    sim.schedule_as_of(5.0, lambda: fired.append("X"), born=4.0)
    sim.schedule_as_of(5.0, lambda: fired.append("Y"), born=-1.0)
    sim.schedule_at(6.0, lambda: fired.append("later"))
    sim.run_until(10.0)
    assert fired == ["Y", "a", "b", "X", "later"]


def test_schedule_as_of_replays_of_one_birth_fire_last_pushed_first():
    """A gated controller re-arms its fsm clock, then its sync clock, as
    of one birth: the sync edge fires first, ahead of the events born
    at that instant."""
    sim = Simulator()
    fired = []
    _same_instant(sim, "a", fired)
    sim.schedule(2.0, lambda: _same_instant(sim, "b", fired))
    sim.run_until(3.0)
    sim.schedule_as_of(5.0, lambda: fired.append("fsm"), born=2.0)
    sim.schedule_as_of(5.0, lambda: fired.append("sync"), born=2.0)
    assert all(type(entry[3]) is int for entry in sim._queue)
    sim.run_until(10.0)
    assert fired == ["a", "sync", "fsm", "b"]


def test_schedule_as_of_ignores_other_instants_and_priorities():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(
        5.0, lambda: fired.append("late-pre"), priority=-1))
    sim.schedule(1.0, lambda: sim.schedule_at(
        5.0, lambda: fired.append("late-post"), priority=1))
    sim.schedule(1.0, lambda: sim.schedule_at(
        4.0, lambda: fired.append("earlier")))
    sim.run_until(2.0)
    sim.schedule_as_of(5.0, lambda: fired.append("X"), born=0.5)
    sim.run_until(10.0)
    assert fired == ["earlier", "late-pre", "X", "late-post"]


def test_schedule_as_of_past_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_as_of(4.0, lambda: None, born=0.0)


def test_restore_revives_a_queued_cancelled_event_in_its_place():
    sim = Simulator()
    fired = []
    _same_instant(sim, "a", fired)
    kept = sim.schedule_at(5.0, lambda: fired.append("E"))
    _same_instant(sim, "b", fired)
    kept.cancel()
    sim.run_until(1.0)
    assert kept.restore()
    _same_instant(sim, "c", fired)
    sim.run_until(10.0)
    assert fired == ["a", "E", "b", "c"]


def test_restore_fails_once_delivery_pops_the_cancelled_entry():
    """Mid-instant, an earlier same-instant event still finds the
    cancelled entry queued; a later one finds it popped."""
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append(("first", kept.restore())))
    kept = sim.schedule_at(5.0, lambda: fired.append("kept"))
    dead = sim.schedule_at(5.0, lambda: fired.append("dead"))
    sim.schedule_at(5.0, lambda: fired.append(("last", dead.restore())))
    kept.cancel()
    dead.cancel()
    sim.run_until(10.0)
    assert fired == [("first", True), "kept", ("last", False)]
    assert dead.cancelled


def test_run_before_keeps_cancelled_entries_past_the_limit():
    sim = Simulator()
    fired = []
    dead = sim.schedule(5 * NS, lambda: fired.append(sim.now))
    dead.cancel()
    sim.run_before([3 * NS], 0)
    assert not sim.run_one_before(3 * NS)
    assert dead.restore()
    sim.run_until(10 * NS)
    assert fired == [5 * NS]
