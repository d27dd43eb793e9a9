"""Clock suspend / fast-forward mechanics.

The clock-gating fast-forward is only sound if the re-armed edge grid is
*bit-identical* to the grid an ungated clock would have produced — the
skipped edge times must be replayed with the same chain of float
additions, an edge landing exactly on the jump target must still fire,
and skipped edges must never dispatch listeners (their sweeps are
defined to be no-ops, so nobody may observe them).
"""

import math

import pytest

from repro.digital.clock import Clock
from repro.sim import Simulator
from repro.sim.signal import ANY


def _watch(clock):
    """Record (time, value) for every dispatched edge."""
    seen = []
    clock.signal.subscribe(lambda s, v: seen.append((s.sim.now, v)), ANY)
    return seen


@pytest.mark.parametrize("duty", [0.5, 0.3])
@pytest.mark.parametrize("phase", [0.0, 0.7e-9])
def test_fast_forward_grid_bit_identical_to_free_running(duty, phase):
    """Suspend + fast-forward, then compare every subsequent edge time
    against a never-gated clock — exact float equality, no tolerance.
    Period and phase are deliberately not exactly representable; an
    uneven duty makes rise and fall add different half-periods, and the
    resume instants span a period, so the replay stops after either."""
    period = 3.3e-9

    free_sim = Simulator()
    free = Clock(free_sim, "free", period, duty=duty, phase=phase)
    free_seen = _watch(free)
    free_sim.run_until(100e-9)

    for resume in (45e-9 + 0.29e-9 * j for j in range(12)):
        gated_sim = Simulator()
        gated = Clock(gated_sim, "gated", period, duty=duty, phase=phase)
        gated_seen = _watch(gated)
        gated_sim.run_until(10e-9)
        gated.suspend()
        gated_sim.run_until(resume)
        assert len(gated_seen) == sum(1 for t, _ in free_seen if t <= 10e-9)
        gated.fast_forward(gated_sim.now)
        gated_sim.run_until(100e-9)

        tail = [e for e in free_seen if e[0] >= resume]
        assert gated_seen[-len(tail):] == tail  # bit-identical times, values
        assert gated.edges_simulated + gated.edges_skipped == \
            free.edges_simulated
        assert gated.edges_skipped == sum(
            1 for t, _ in free_seen if 10e-9 < t < resume)


def test_fast_forward_landing_exactly_on_edge_fires_it():
    """Only edges strictly before the target are skipped: a jump that
    lands on an edge schedules that edge at the jump time."""
    sim = Simulator()
    clk = Clock(sim, "clk", period=2.0)  # rise 0, fall 1, rise 2, ...
    seen = _watch(clk)
    sim.run_until(2.5)
    assert [v for _, v in seen] == [True, False, True]
    clk.suspend()
    clk.fast_forward(4.0)  # fall@3 skipped; rise@4 is *at* the target
    assert clk.edges_skipped == 1
    assert clk.signal.value is False  # the skipped fall was applied silently
    assert len(seen) == 3             # ... without dispatching listeners
    sim.run_until(4.0)
    assert seen[-1] == (4.0, True)    # the landing edge fired, at 4.0 exactly
    assert clk.edges_simulated == 4


def test_suspend_cancels_pending_edge_and_is_idempotent():
    sim = Simulator()
    clk = Clock(sim, "clk", period=2.0)
    sim.run_until(0.5)
    clk.suspend()
    clk.suspend()  # idempotent
    assert clk.suspended
    sim.run_until(100.0)
    assert clk.edges_simulated == 1  # only the rise at t=0
    assert not sim.run_one_before(math.inf)  # no live event left


def test_fast_forward_on_running_clock_is_a_noop():
    sim = Simulator()
    clk = Clock(sim, "clk", period=2.0)
    seen = _watch(clk)
    clk.fast_forward(10.0)
    assert not clk.suspended and clk.edges_skipped == 0
    sim.run_until(2.5)
    assert [t for t, _ in seen] == [0.0, 1.0, 2.0]


def test_suspend_from_inside_edge_listener_cancels_follow_up():
    """A listener may gate the clock from within the very edge being
    dispatched; the already-scheduled next edge must not resurrect it."""
    sim = Simulator()
    clk = Clock(sim, "clk", period=2.0)

    def gate_on_first_rise(sig, value):
        if value:
            clk.suspend()

    clk.signal.subscribe(gate_on_first_rise, ANY)
    sim.run_until(50.0)
    assert clk.edges_simulated == 1
    assert clk.suspended
    assert not sim.run_one_before(math.inf)  # no live event left


def test_fast_forward_resumes_mid_cycle_value():
    """Suspending mid-high and jumping past the fall leaves the signal
    low (forced, not dispatched) before the next scheduled rise."""
    sim = Simulator()
    clk = Clock(sim, "clk", period=2.0, duty=0.5)
    sim.run_until(0.5)   # high: rose at 0, fall pending at 1
    clk.suspend()
    assert clk.signal.value is True
    clk.fast_forward(3.5)  # skips fall@1, rise@2, fall@3
    assert clk.edges_skipped == 3
    assert clk.signal.value is False
    sim.run_until(4.0)
    assert clk.signal.value is True  # rise@4 delivered normally
