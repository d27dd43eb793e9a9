"""Fig. 6 — simulation waveforms: sync 333 MHz vs. event-driven async.

The paper's 10 us scenario: cold startup, normal load, a high-load step,
and recovery.  Reported quantities (annotated on the paper's waveforms):

- steady-state voltage ripple at normal load (paper: 0.43 V sync vs
  0.36 V async);
- inductor peak current at normal load (paper: 0.24 A vs 0.21 A);
- over-voltage behaviour after startup (sync shows *recurring* OV
  conditions; async resolves OV once and does not revisit it);
- overshoot at the exit from high load (async: none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analog.load import LoadProfile
from ..metrics.waveform import ascii_waveform, edge_count, ripple
from ..session import Session, default_session
from ..sim.units import MHZ, NS, UH, US
from ..system import BuckSystem, SystemConfig
from ..trace import TraceSet
from .report import format_table

#: paper-reported values the reproduced Fig. 6 is compared against
PAPER_FIG6 = {
    "sync": {"ripple_v": 0.43, "peak_a": 0.24, "recurring_ov": True},
    "async": {"ripple_v": 0.36, "peak_a": 0.21, "recurring_ov": False},
}

#: scenario windows (seconds)
STARTUP = (0.0, 2 * US)
NORMAL = (2 * US, 6 * US)
HIGH_LOAD = (6 * US, 8 * US)
RECOVERY = (8 * US, 10 * US)


@dataclass
class Fig6Run:
    """Measured Fig. 6 quantities for one controller."""

    label: str
    ripple_v: float          #: peak-to-peak V_out at normal load
    peak_a: float            #: max |i_coil| at normal load
    startup_overshoot_v: float
    ov_events_startup: int
    ov_events_after_startup: int
    recovery_overshoot_v: float
    hl_events: int
    v_min_high_load: float
    trace: Optional[TraceSet] = None   #: full waveform set of the run
    system: Optional[BuckSystem] = None


def _fig6_config(controller: str, fsm_frequency: float, seed: int) -> SystemConfig:
    return SystemConfig(
        controller=controller,
        fsm_frequency=fsm_frequency,
        n_phases=4,
        inductance=1.0 * UH,   # fast-slew coil: latency differences resolve
        load=LoadProfile([(0.0, 6.0), (6 * US, 2.5), (8 * US, 6.0)]),
        sim_time=10 * US,
        dt=0.5 * NS,
        seed=seed,
        trace=True,
    )


def run_one(controller: str, fsm_frequency: float = 333 * MHZ,
            seed: int = 0, keep_system: bool = False,
            session: Optional[Session] = None) -> Fig6Run:
    """Run the Fig. 6 scenario for one controller and measure it.

    Waveform-level: the session builds a live traced system, and every
    quantity is read back from the run's :class:`~repro.trace.TraceSet`
    (the same reads work on a cached traced result — see
    :func:`measure_trace`).
    """
    session = session or default_session()
    config = _fig6_config(controller, fsm_frequency, seed)
    system = session.build(config)
    system.sim.run_until(config.sim_time)

    label = (controller if controller == "async"
             else f"sync@{fsm_frequency / MHZ:.0f}MHz")
    run = measure_trace(system.trace_set(), label)
    if keep_system:
        run.system = system
    return run


def measure_trace(trace: TraceSet, label: str,
                  v_ref: Optional[float] = None) -> Fig6Run:
    """Extract every Fig. 6 quantity from a recorded trace set.

    Works on a live system's :meth:`~repro.system.BuckSystem.trace_set`
    and, identically, on the ``result.trace`` of a cached
    ``Session.run(..., trace=True)`` — no re-simulation needed.  The
    overshoot reference defaults to the ``v_ref`` the run recorded in
    ``trace.meta`` (pass ``v_ref=`` explicitly only to override it).
    """
    if v_ref is None:
        v_ref = float(trace.meta.get("v_ref", 3.3))
    vp = trace.probe("v_load")
    ov, hl = trace.probe("ov"), trace.probe("hl")
    normal_peak = 0.0
    for name in trace.channels:
        if name.startswith("i_coil"):
            _, vals = trace.probe(name).window(*NORMAL)
            if len(vals):
                normal_peak = max(normal_peak, max(abs(v) for v in vals))
    _, hl_vals = vp.window(*HIGH_LOAD)
    return Fig6Run(
        label=label,
        ripple_v=ripple(vp, *NORMAL),
        peak_a=normal_peak,
        startup_overshoot_v=max(0.0, max(vp.window(*STARTUP)[1]) - v_ref),
        ov_events_startup=edge_count(ov, "rise", 0.0, STARTUP[1]),
        ov_events_after_startup=edge_count(ov, "rise", STARTUP[1], 10 * US),
        recovery_overshoot_v=max(0.0,
                                 max(vp.window(*RECOVERY)[1]) - v_ref),
        hl_events=edge_count(hl, "rise", 0.0, 10 * US),
        v_min_high_load=float(min(hl_vals)) if len(hl_vals) else 0.0,
        trace=trace,
    )


@dataclass
class Fig6Result:
    runs: List[Fig6Run]

    def run(self, label_prefix: str) -> Fig6Run:
        for r in self.runs:
            if r.label.startswith(label_prefix):
                return r
        raise KeyError(label_prefix)

    def format(self) -> str:
        header = ["quantity"] + [r.label for r in self.runs]
        rows = [
            ["V ripple, normal load (V)"] +
            [f"{r.ripple_v:.3f}" for r in self.runs],
            ["peak coil current, normal load (A)"] +
            [f"{r.peak_a:.3f}" for r in self.runs],
            ["startup overshoot above V_ref (V)"] +
            [f"{r.startup_overshoot_v:.3f}" for r in self.runs],
            ["OV events during startup"] +
            [str(r.ov_events_startup) for r in self.runs],
            ["OV events after startup"] +
            [str(r.ov_events_after_startup) for r in self.runs],
            ["overshoot after HL exit (V)"] +
            [f"{r.recovery_overshoot_v:.3f}" for r in self.runs],
            ["min V during high load (V)"] +
            [f"{r.v_min_high_load:.3f}" for r in self.runs],
        ]
        return format_table("Fig. 6: waveform comparison "
                            "(startup / normal / high load / recovery)",
                            header, rows)


def run_fig6(fsm_frequency: float = 333 * MHZ, seed: int = 0,
             keep_systems: bool = False,
             session: Optional[Session] = None) -> Fig6Result:
    """Run both controllers through the Fig. 6 scenario."""
    return Fig6Result([
        run_one("sync", fsm_frequency, seed, keep_systems, session=session),
        run_one("async", fsm_frequency, seed, keep_systems, session=session),
    ])


def render_waveforms(run: Fig6Run, width: int = 90) -> str:
    """ASCII view of V_load over the full scenario."""
    if run.trace is None:
        raise ValueError("run carries no trace set")
    return ascii_waveform(run.trace.probe("v_load"), 0.0, 10 * US,
                          width=width, title=f"V_load — {run.label}")


def export_vcd(run: Fig6Run, path: str) -> None:
    """Dump the Fig. 6 trace set as a VCD file for external viewers.

    Reads the recorded :class:`~repro.trace.TraceSet` — works equally on
    a fresh run and on one rebuilt from the result cache."""
    if run.trace is None:
        raise ValueError("run carries no trace set")
    run.trace.to_vcd(path)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    result = run_fig6(keep_systems=True)
    print(result.format())
    for r in result.runs:
        print()
        print(render_waveforms(r))
