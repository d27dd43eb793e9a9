"""Fig. 7 — peak current and inductor losses across coils and loads.

- **7a**: inductor peak current for 1-10 uH coils at 6 Ohm load, all five
  controllers.  Slower control reacts later to OC during the startup/HL
  transients, overshooting the current limit further — so it needs a
  bigger coil to respect a given peak budget.  The paper's trade-off:
  async holds 300 mA with a 1.8 uH coil where 333 MHz sync needs 6.8 uH
  and 100 MHz needs 10 uH.
- **7b**: the same comparison across 3-15 Ohm loads at 4.7 uH.
- **7c**: inductor conduction losses for 1-10 uH at 6 Ohm — DCR grows
  with L, so the smallest workable coil also loses the least.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analog.coil import library_values, make_coil, smallest_coil_for_peak
from ..scenarios.spec import Sweep
from ..session import Session, default_session
from ..sim.units import MHZ, NS, UH, US
from .report import Series, ascii_chart, format_series_table

#: the five controller variants of the evaluation
CONTROLLERS: List[Tuple[str, Optional[float]]] = [
    ("100MHz", 100 * MHZ),
    ("333MHz", 333 * MHZ),
    ("666MHz", 666 * MHZ),
    ("1GHz", 1000 * MHZ),
    ("ASYNC", None),
]

#: paper's Fig. 7a coil-size trade-off (inductance needed to stay below
#: the peak budget): async 1.8 uH, 666MHz 3.1 uH, 333MHz 6.8 uH,
#: 100MHz 10 uH
PAPER_FIG7A_TRADEOFF_UH = {
    "ASYNC": 1.8, "666MHz": 3.1, "333MHz": 6.8, "100MHz": 10.0,
}


@dataclass
class SweepResult:
    """One figure's data: label -> [(x, y)] + the measurement meta."""

    name: str
    x_label: str
    y_label: str
    series: Series = field(default_factory=dict)
    #: label -> per-point TraceSets (populated when run with trace=True)
    traces: Dict[str, List] = field(default_factory=dict)

    def value(self, label: str, x: float) -> float:
        for px, py in self.series[label]:
            if abs(px - x) < 1e-12:
                return py
        raise KeyError(f"{label} has no point at {x}")

    def format(self, x_format: str = "{:.3g}",
               y_format: str = "{:.1f}") -> str:
        return format_series_table(self.name, self.x_label, x_format,
                                   y_format, self.series)

    def chart(self) -> str:
        return ascii_chart(self.series, title=self.name,
                           x_label=self.x_label, y_label=self.y_label)


def controller_axis() -> List[Tuple[str, Mapping[str, Any]]]:
    """The five controller variants as a labelled sweep axis."""
    return [
        (label, {"controller": "async"} if freq is None
         else {"controller": "sync", "fsm_frequency": freq})
        for label, freq in CONTROLLERS
    ]


def _coil_axis(l_values: List[float]) -> List[Tuple[str, Mapping[str, Any]]]:
    return [(f"{l / UH:g}uH", {"coil": make_coil(l)}) for l in l_values]


def default_l_values(quick: bool = False) -> List[float]:
    values = library_values()
    if quick:
        values = [v for v in values
                  if round(v / UH, 2) in (1.0, 2.25, 4.7, 10.0)]
    return values


def _sweep_figure(name: str, base: Dict[str, Any], inner_axis,
                  session: Session, track_energy: bool = True,
                  trace: bool = False):
    """Controller x inner-axis grid through the session's sweep engine.

    Returns the results grouped per controller label, inner axis fastest —
    the same nesting the sequential loops used, so series ordering (and,
    with the vectorized backend's bit-matched arithmetic, every number)
    is unchanged.  The session supplies backend, worker sharding, and the
    result cache (a re-run of the same grid is served from cache);
    ``trace=True`` attaches each point's waveform TraceSet (sharded and
    cached like the scalar numbers).
    """
    sweep = Sweep(base=base, name=name)
    sweep.grid(ctrl=controller_axis(), pt=inner_axis)
    points = session.sweep(sweep, track_energy=track_energy, trace=trace)
    n_inner = len(inner_axis)
    grouped = {}
    for row, (label, _) in enumerate(CONTROLLERS):
        start = row * n_inner
        grouped[label] = [p.result for p in points[start:start + n_inner]]
    return grouped


def _fill_series(result: SweepResult, grouped, xs, y_fn,
                 trace: bool) -> None:
    """Populate ``result.series`` (and, when traced, ``result.traces``)
    from the per-label run lists — shared by all three drivers."""
    for label, runs in grouped.items():
        result.series[label] = [(x, y_fn(run)) for x, run in zip(xs, runs)]
        if trace:
            result.traces[label] = [run.trace for run in runs]


def run_fig7a(l_values: Optional[List[float]] = None, r_load: float = 6.0,
              seed: int = 0, dt: float = 1 * NS, quick: bool = False,
              session: Optional[Session] = None,
              trace: bool = False) -> SweepResult:
    """Fig. 7a: peak inductor current vs. coil inductance at 6 Ohm.

    ``trace=True`` additionally collects each point's waveform
    :class:`~repro.trace.TraceSet` in ``result.traces[label]``."""
    session = session or default_session()
    l_values = l_values or default_l_values(quick)
    result = SweepResult("Fig. 7a: inductor peak current, "
                         f"{r_load:g} Ohm load",
                         "L (uH)", "peak current (mA)")
    base = {"n_phases": 4, "r_load": r_load, "sim_time": 10 * US,
            "dt": dt, "seed": seed}
    grouped = _sweep_figure("fig7a", base, _coil_axis(l_values), session,
                            track_energy=False, trace=trace)
    _fill_series(result, grouped, [l / UH for l in l_values],
                 lambda run: run.peak_coil_current * 1e3, trace)
    return result


def run_fig7b(r_values: Optional[List[float]] = None,
              inductance: float = 4.7 * UH, seed: int = 0,
              dt: float = 1 * NS, quick: bool = False,
              session: Optional[Session] = None,
              trace: bool = False) -> SweepResult:
    """Fig. 7b: peak inductor current vs. load resistance at 4.7 uH."""
    session = session or default_session()
    r_values = r_values or ([3.0, 6.0, 15.0] if quick
                            else [3.0, 6.0, 9.0, 12.0, 15.0])
    result = SweepResult("Fig. 7b: inductor peak current, "
                         f"{inductance / UH:g} uH coil",
                         "R_load (Ohm)", "peak current (mA)")
    base = {"n_phases": 4, "coil": make_coil(inductance),
            "sim_time": 10 * US, "dt": dt, "seed": seed}
    axis = [(f"{r:g}Ohm", {"r_load": r}) for r in r_values]
    grouped = _sweep_figure("fig7b", base, axis, session,
                            track_energy=False, trace=trace)
    _fill_series(result, grouped, r_values,
                 lambda run: run.peak_coil_current * 1e3, trace)
    return result


def run_fig7c(l_values: Optional[List[float]] = None, r_load: float = 6.0,
              seed: int = 0, dt: float = 1 * NS, quick: bool = False,
              session: Optional[Session] = None,
              trace: bool = False) -> SweepResult:
    """Fig. 7c: inductor conduction losses vs. coil inductance at 6 Ohm."""
    session = session or default_session()
    l_values = l_values or default_l_values(quick)
    result = SweepResult("Fig. 7c: inductor losses, "
                         f"{r_load:g} Ohm load",
                         "L (uH)", "losses (uW)")
    base = {"n_phases": 4, "r_load": r_load, "sim_time": 10 * US,
            "dt": dt, "seed": seed}
    grouped = _sweep_figure("fig7c", base, _coil_axis(l_values), session,
                            trace=trace)
    _fill_series(result, grouped, [l / UH for l in l_values],
                 lambda run: run.coil_loss_w * 1e6, trace)
    return result


def coil_tradeoff(fig7a: SweepResult, limit_ma: float) -> Dict[str, float]:
    """The paper's coil-size query: per controller, the smallest coil (uH)
    whose peak current stays at or below ``limit_ma``; inf if none."""
    out: Dict[str, float] = {}
    for label, pts in fig7a.series.items():
        peaks = {x * UH: y / 1e3 for x, y in pts}
        try:
            out[label] = smallest_coil_for_peak(peaks, limit_ma / 1e3) / UH
        except ValueError:
            out[label] = float("inf")
    return out


def format_tradeoff(tradeoff: Dict[str, float], limit_ma: float) -> str:
    lines = [f"smallest coil keeping peak <= {limit_ma:.0f} mA:"]
    for label in ("ASYNC", "1GHz", "666MHz", "333MHz", "100MHz"):
        if label in tradeoff:
            v = tradeoff[label]
            lines.append(f"  {label:>7}: "
                         + ("none in range" if v == float("inf")
                            else f"{v:.3g} uH"))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    a = run_fig7a()
    print(a.format())
    print(a.chart())
    print(format_tradeoff(coil_tradeoff(a, 310.0), 310.0))
    b = run_fig7b()
    print(b.format())
    c = run_fig7c()
    print(c.format())
