"""Shared error-controlled adaptive micro-stepping policy.

Both analog backends — the scalar event-driven
:class:`~repro.analog.solver.AnalogSolver` and the batched
:class:`~repro.scenarios.vector_solver.VectorizedSolver` — implement the
same stepping scheme, parameterised by one :class:`SteppingPolicy`:

``fixed``
    The historical behaviour: one RK2 micro-step every ``dt``, bit-for-bit
    unchanged (golden results are locked against it).

``adaptive``
    An embedded RK2(1) error estimate controls the step size.  The RK2
    midpoint step already evaluates the two slopes ``k1`` (Euler) and
    ``k2`` (midpoint); their difference is the classic first-order
    embedded estimate ``err = |dt * (k2 - k1)|`` of the local error.
    Every step is *accepted* (no rollback — between snapped events the
    buck ODE is piecewise linear, so the estimate varies smoothly) and
    the estimate sizes the **next** step through the standard order-2
    controller::

        dt_next = clamp(safety * dt / sqrt(err_norm),
                        dt_min, min(growth * dt_prev, dt_max))

    with ``err_norm`` the tolerance-scaled error
    ``max(err_i / (atol_i + rtol*|i|max), err_v / (atol_v + rtol*|v|))``.

    **Event-boundary snapping** preserves the fixed-step semantics that
    matter to the paper (sub-nanosecond reaction latencies, Fig. 6 peak
    currents): a step never straddles

    - a **gate-driver commutation** — the gate driver announces every
      scheduled transistor flip, and the solver ends the step exactly on
      that timestamp (integrating up to it with the pre-flip conduction
      state, priority-ordered ahead of the flip itself);
    - a **load-profile breakpoint** — piecewise-constant load changes
      land on step boundaries instead of mid-step;
    - a **predicted comparator crossing** — the monitored quantities'
      realized slopes bound the time-to-threshold of every armed
      comparator, and the step is capped just short of the earliest one,
      so crossings fall inside *small* steps where the existing
      sub-step linear interpolation pins the edge time.

    Purely digital events (FSM clocks, synchronizers, token timers) do
    **not** snap the step: they never read analog state directly, so the
    kernel delivers them mid-step at their exact timestamps, exactly as
    in fixed mode.

The per-step decisions are pure functions of one simulation's own state
(never of batch neighbours), which is what keeps a lane's adaptive
trajectory bit-identical across the inline, process-sharded, and
result-cached execution paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

from ..sim.units import NS

#: proposal shrink/growth guards of the step-size controller
SAFETY = 0.85
GROWTH = 2.0

#: default bounds/tolerances relative to the configured base micro-step
DT_MIN_FACTOR = 0.25
DT_MAX_FACTOR = 64.0
DEFAULT_RTOL = 1e-3
DEFAULT_ATOL_I = 1e-4   #: ampere — 0.1 mA on ~300 mA peaks
DEFAULT_ATOL_V = 5e-4   #: volt — 0.5 mV on a 3.3 V rail

STEPPING_MODES = ("fixed", "adaptive")

#: clock-gating fast-forward modes — 'auto' suspends the synchronous
#: controller's clocks across provably idle stretches (semantics
#: preserving; see README "Clock gating"), 'off' delivers every edge
GATING_MODES = ("auto", "off")


@dataclass(frozen=True)
class SteppingPolicy:
    """Resolved stepping parameters of one scenario (shared by backends)."""

    mode: str                 #: 'fixed' or 'adaptive'
    dt: float                 #: base micro-step (fixed step / initial proposal)
    dt_min: float             #: smallest error-controlled step
    dt_max: float             #: largest step between events
    rtol: float               #: relative tolerance on both state families
    atol_i: float             #: absolute current tolerance (A)
    atol_v: float             #: absolute voltage tolerance (V)

    def __post_init__(self) -> None:
        if self.mode not in STEPPING_MODES:
            raise ValueError(
                f"stepping mode must be one of {STEPPING_MODES}, "
                f"got {self.mode!r}")
        if self.dt <= 0:
            raise ValueError("solver step must be positive")
        if self.dt_min <= 0 or self.dt_max < self.dt_min:
            raise ValueError(
                f"need 0 < dt_min <= dt_max "
                f"(got dt_min={self.dt_min:g}, dt_max={self.dt_max:g})")
        if self.rtol < 0 or self.atol_i <= 0 or self.atol_v <= 0:
            raise ValueError("tolerances must be positive (rtol may be 0)")

    @property
    def adaptive(self) -> bool:
        return self.mode == "adaptive"

    @classmethod
    def from_config(cls, config) -> "SteppingPolicy":
        """Resolve a :class:`~repro.system.SystemConfig`'s stepping knobs.

        ``dt_min`` / ``dt_max`` default to fixed multiples of the config's
        ``dt`` (so the same relative bounds follow a 0.5 ns Fig. 6 run and
        a 1 ns sweep run); the tolerances carry their own defaults.
        """
        dt = config.dt
        return cls(
            mode=config.stepping,
            dt=dt,
            dt_min=config.dt_min if config.dt_min is not None
            else DT_MIN_FACTOR * dt,
            dt_max=config.dt_max if config.dt_max is not None
            else DT_MAX_FACTOR * dt,
            rtol=config.rtol,
            atol_i=config.atol_i,
            atol_v=config.atol_v,
        )

    @classmethod
    def fixed(cls, dt: float = 1.0 * NS) -> "SteppingPolicy":
        """A plain fixed-step policy (the solvers' default)."""
        return cls(mode="fixed", dt=dt, dt_min=dt, dt_max=dt,
                   rtol=DEFAULT_RTOL, atol_i=DEFAULT_ATOL_I,
                   atol_v=DEFAULT_ATOL_V)


def commutation_target(when: float, t0: float, guard: float) -> float:
    """Where a gate-driver flip at ``when`` ends a step that starts at
    ``t0``: exactly on the flip when it is at least ``guard`` past the
    start, otherwise at ``t0 + guard``."""
    return when if when - t0 >= guard else t0 + guard


def snap_to_commutation(commutes: List[float], t0: float, t_end: float,
                        guard: float) -> float:
    """Snap a step ``[t0, t_end]`` onto the earliest pending flip.

    ``commutes`` is a heap of announced flip times; flips at or before
    ``t0`` are popped.  A flip more than a guard away ends the step
    exactly on its instant (the commit runs first, at priority -1, so the
    step integrates the pre-flip state).  Flips *within* a guard of the
    boundary stay mid-step and apply retroactively over at most one guard
    — the same commutation granularity the fixed ``dt`` step has — which
    coalesces the dense flip bursts of a switching cycle into one tick
    instead of several sub-nanosecond ones.
    """
    while commutes and commutes[0] <= t0:
        heapq.heappop(commutes)
    if commutes and commutes[0] < t_end:
        return min(t_end, commutation_target(commutes[0], t0, guard))
    return t_end
