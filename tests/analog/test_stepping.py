"""The adaptive stepper's commutation window, shared by both backends.

``commutation_target`` / ``snap_to_commutation`` decide where a pending
gate-driver flip ends a step: exactly on the flip when it lies at least
one guard past the step start, otherwise at start + guard.  These pin
the boundaries of that rule with realistic, non-dyadic times.
"""

import heapq
import math

from repro.analog.stepping import commutation_target, snap_to_commutation
from repro.sim import NS

T0 = 1234.567 * NS
GUARD = 0.7 * NS
T_END = T0 + 40 * NS


def _first_flip_a_guard_away():
    """The smallest flip time ``w`` with ``w - T0 >= GUARD``."""
    when = T0 + GUARD
    while when - T0 < GUARD:
        when = math.nextafter(when, math.inf)
    while math.nextafter(when, -math.inf) - T0 >= GUARD:
        when = math.nextafter(when, -math.inf)
    return when


def test_flip_exactly_a_guard_past_the_start_snaps_onto_it():
    when = _first_flip_a_guard_away()
    assert commutation_target(when, T0, GUARD) == when
    assert snap_to_commutation([when], T0, T_END, GUARD) == when


def test_flip_one_ulp_closer_bounds_the_step_at_start_plus_guard():
    closer = math.nextafter(_first_flip_a_guard_away(), -math.inf)
    assert closer < T0 + GUARD
    assert commutation_target(closer, T0, GUARD) == T0 + GUARD
    assert snap_to_commutation([closer], T0, T_END, GUARD) == T0 + GUARD
    # the guard bound never lengthens a step that already ends sooner
    short_end = T0 + 0.5 * GUARD
    assert snap_to_commutation([closer], T0, short_end, GUARD) == short_end


def test_flips_at_or_before_the_start_are_popped():
    later = T0 + 5 * NS
    commutes = [T0 - 3 * NS, T0, later]
    heapq.heapify(commutes)
    assert snap_to_commutation(commutes, T0, T_END, GUARD) == later
    assert commutes == [later]
    stale = [T0 - 1 * NS, T0]
    assert snap_to_commutation(stale, T0, T_END, GUARD) == T_END
    assert stale == []


def test_flip_at_or_after_the_end_leaves_it_unchanged():
    for when in (T_END, math.nextafter(T_END, math.inf), T_END + 1 * NS):
        commutes = [when]
        assert snap_to_commutation(commutes, T0, T_END, GUARD) == T_END
        assert commutes == [when]      # still pending for a later step
