"""Analog sensors: threshold comparators with delay, hysteresis and noise.

The buck's operating conditions (Fig. 2a) are detected by comparators:

========  =========================  ==========================
signal    condition                  threshold (normal / OV mode)
========  =========================  ==========================
``hl``    high load                  v_out < V_min
``uv``    under-voltage              v_out < V_ref
``ov``    over-voltage               v_out > V_max
``oc_k``  over-current, phase k      i_k > I_max  /  i_k > I_0
``zc_k``  zero-crossing, phase k     i_k < I_0    /  i_k < I_neg
========  =========================  ==========================

Comparator outputs are **non-persistent**: they track the analog quantity
and may pulse or chatter near the threshold (enable ``noise`` to exercise
this).  Containing that non-persistence is exactly what the paper's A2A
elements are for; the synchronous design needs 2-flop synchronisers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.core import Simulator
from ..sim.signal import Signal
from ..sim.units import NS

#: comparator polarity: output high while quantity is above the threshold
ABOVE = "above"
#: comparator polarity: output high while quantity is below the threshold
BELOW = "below"


class Comparator:
    """Analog comparator with propagation delay and hysteresis.

    It is sampled once per integration step: inline by its
    :class:`SensorBank`, which makes the decision :meth:`observe` makes,
    or through :meth:`sample` / :meth:`observe` when the comparator is
    used on its own.  On a flip the comparator linearly interpolates the
    crossing instant inside the step and schedules the output edge at
    ``crossing + delay``.

    Parameters
    ----------
    quantity:
        Zero-argument callable returning the monitored analog value.
    threshold:
        Trip level; a plain attribute so mode controllers can re-reference
        the comparator on the fly (the paper's OV mode swaps I_max->I_0 and
        I_0->I_neg).
    direction:
        :data:`ABOVE` or :data:`BELOW`.
    hysteresis:
        Width of the release band (always widens the high region).
    noise:
        RMS of Gaussian jitter added to the threshold at every sample;
        models real comparator input noise and produces the non-persistent
        chatter the A2A elements must tolerate.
    """

    def __init__(self, sim: Simulator, name: str,
                 quantity: Callable[[], float], threshold: float,
                 direction: str = ABOVE, delay: float = 1.0 * NS,
                 hysteresis: float = 0.0, noise: float = 0.0,
                 trace: bool = True):
        if direction not in (ABOVE, BELOW):
            raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
        if hysteresis < 0:
            raise ValueError("hysteresis cannot be negative")
        self.sim = sim
        self.name = name
        self.quantity = quantity
        self.threshold = threshold
        self.direction = direction
        self._above = direction == ABOVE
        self.delay = delay
        self.hysteresis = hysteresis
        self.noise = noise
        self.output = Signal(sim, name, init=False, trace=trace)
        self._prev_t: Optional[float] = None
        self._prev_x: Optional[float] = None
        self._state = False  # comparator decision before propagation delay

    # ------------------------------------------------------------------
    def armed_level(self) -> float:
        """The noise-free level the next trip decision compares against
        (threshold, widened by the hysteresis band while tripped).  The
        adaptive stepper predicts time-to-crossing against this level."""
        th = self.threshold
        if not self._state:
            return th
        return th - self.hysteresis if self.direction == ABOVE \
            else th + self.hysteresis

    def sample(self, t: float) -> None:
        """Evaluate the comparator at time ``t`` (one solver step)."""
        self.observe(t, self.quantity())

    def observe(self, t: float, x: float) -> None:
        """Evaluate the comparator at time ``t`` on the value ``x`` its
        quantity holds there (a :class:`SensorBank` reads each analog
        quantity once and hands it to every comparator watching it)."""
        prev_t, prev_x = self._prev_t, self._prev_x
        self._prev_t, self._prev_x = t, x

        # trip decision against the (noisy) threshold; the hysteresis
        # band widens the high region while tripped
        state = self._state
        th = self.threshold
        if self.noise:
            th += self.sim.rng.gauss(0.0, self.noise)
        if self._above:
            new_state = x >= th - self.hysteresis if state else x > th
        else:
            new_state = x <= th + self.hysteresis if state else x < th
        if new_state != state:
            self._flip(new_state, t, x, prev_t, prev_x)

    def _flip(self, new_state: bool, t: float, x: float,
              prev_t: Optional[float], prev_x: Optional[float]) -> None:
        """Take the decision ``new_state`` made on sample ``(t, x)`` and
        schedule the output edge it drives."""
        self._state = new_state
        fire_at = edge_time(t, x, prev_t, prev_x, self.threshold, self.delay)
        self.sim.schedule_at(fire_at, lambda v=new_state: self.output._apply(v))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Comparator({self.name!r}, {self.direction} "
                f"{self.threshold:g}, out={int(self.output.value)})")


def edge_time(t: float, x: float, prev_t: Optional[float], prev_x: float,
              threshold: float, delay: float) -> float:
    """When a comparator that flipped at sample ``(t, x)`` drives its
    output: the crossing instant, linearly interpolated against the clean
    ``threshold`` inside the step from the previous sample ``(prev_t,
    prev_x)``, plus ``delay`` — never before ``t``.  Without a previous
    sample (``prev_t`` None, ``prev_x`` ignored) the crossing is ``t``."""
    cross_t = t
    if prev_t is not None and prev_x != x:
        frac = (threshold - prev_x) / (x - prev_x)
        if 0.0 <= frac <= 1.0:
            cross_t = prev_t + frac * (t - prev_t)
    return max(t, cross_t + delay)


@dataclass
class BuckReferences:
    """Reference levels of Fig. 2a, with defaults sized for the Fig. 6 run
    (5 V rail bucked to 3.3 V, per-phase current budget ~150 mA)."""

    v_ref: float = 3.3     #: UV threshold — regulation target
    v_min: float = 3.0     #: HL threshold (V_min < V_ref, so HL implies UV)
    v_max: float = 3.55    #: OV threshold
    i_max: float = 0.30    #: OC threshold, normal mode
    i_0: float = 0.005     #: ZC threshold normal mode / OC threshold OV mode
    i_neg: float = -0.08   #: ZC threshold, OV mode
    v_hyst: float = 0.01   #: voltage comparator hysteresis
    i_hyst: float = 0.002  #: current comparator hysteresis

    def __post_init__(self) -> None:
        if not self.v_min < self.v_ref:
            raise ValueError("V_min must be below V_ref (HL implies UV)")
        if not self.v_ref < self.v_max:
            raise ValueError("V_max must be above V_ref")
        if not self.i_neg < self.i_0 < self.i_max:
            raise ValueError("need I_neg < I_0 < I_max")


class SensorBank:
    """All comparators of an N-phase buck, wired to a power stage.

    Per-phase OC/ZC comparators are mode-aware: :meth:`set_ov_mode` swaps
    their references the way the paper describes (OV mode: PMOS off as soon
    as current is positive, NMOS on until the negative limit).

    The bank samples its comparators itself (:meth:`sample_all`) and keeps
    their previous sample, which they all share: a comparator of a bank is
    sampled through the bank, never through its own :meth:`Comparator.sample`.
    """

    def __init__(self, sim: Simulator, stage, refs: Optional[BuckReferences] = None,
                 delay: float = 1.0 * NS, noise: float = 0.0,
                 trace: bool = True):
        self.sim = sim
        self.stage = stage
        self.refs = refs or BuckReferences()
        r = self.refs

        def vout() -> float:
            return stage.v_out

        self.hl = Comparator(sim, "hl", vout, r.v_min, BELOW, delay,
                             r.v_hyst, noise, trace)
        self.uv = Comparator(sim, "uv", vout, r.v_ref, BELOW, delay,
                             r.v_hyst, noise, trace)
        self.ov = Comparator(sim, "ov", vout, r.v_max, ABOVE, delay,
                             r.v_hyst, noise, trace)
        self.oc: List[Comparator] = []
        self.zc: List[Comparator] = []
        self._ov_mode: List[bool] = []
        for k, phase in enumerate(stage.phases):
            def current(p=phase) -> float:
                return p.current
            self.oc.append(Comparator(sim, f"oc{k}", current, r.i_max,
                                      ABOVE, delay, r.i_hyst, noise, trace))
            self.zc.append(Comparator(sim, f"zc{k}", current, r.i_0,
                                      BELOW, delay, r.i_hyst, noise, trace))
            self._ov_mode.append(False)
        self._comps = self.all_comparators()
        # the previous sample: its instant and the value of each
        # comparator's quantity, in all_comparators() order
        self._prev_t: Optional[float] = None
        self._prev_xs: List[Optional[float]] = [None] * len(self._comps)

    def all_comparators(self) -> List[Comparator]:
        return [self.hl, self.uv, self.ov] + self.oc + self.zc

    def sample_all(self, t: float) -> None:
        """Sample every comparator at ``t``, in :meth:`all_comparators`
        order, reading ``v_out`` and each phase current once.

        Each comparator decides exactly as :meth:`Comparator.observe`
        would, with the same noise draw, but inline: only a comparator
        that flips pays for an edge-time interpolation and an event."""
        stage = self.stage
        v = stage.v_out
        currents = [p.current for p in stage.phases]
        xs = [v, v, v] + currents + currents
        prev_t = self._prev_t
        for comp, x, prev_x in zip(self._comps, xs, self._prev_xs):
            th = comp.threshold
            if comp.noise:
                th += comp.sim.rng.gauss(0.0, comp.noise)
            if comp._state:
                if comp._above:
                    if x >= th - comp.hysteresis:
                        continue
                elif x <= th + comp.hysteresis:
                    continue
                comp._flip(False, t, x, prev_t, prev_x)
            elif x > th if comp._above else x < th:
                comp._flip(True, t, x, prev_t, prev_x)
        self._prev_t = t
        self._prev_xs = xs

    # ------------------------------------------------------------------
    def set_ov_mode(self, phase_index: int, on: bool) -> None:
        """Swap phase ``phase_index``'s OC/ZC references for OV operation."""
        if self._ov_mode[phase_index] == on:
            return
        self._ov_mode[phase_index] = on
        r = self.refs
        self.oc[phase_index].threshold = r.i_0 if on else r.i_max
        self.zc[phase_index].threshold = r.i_neg if on else r.i_0

    def ov_mode(self, phase_index: int) -> bool:
        return self._ov_mode[phase_index]
