"""Reaction-time measurement harness (Table I).

Measures, in simulation, the latency from a sensor condition edge to the
corresponding gate-drive reaction, for each of the five conditions (HL,
UV, OV, OC, ZC) and each controller.  The analog is replaced by drivable
stubs so the measurement isolates the *controller* path, exactly like the
paper's PrimeTime latency extraction on the digital netlist.

:func:`measure_one` takes one sample at one stimulus offset; for the
synchronous rows :func:`~repro.experiments.table1.run_table1` sweeps the
offset across the clock period and reports the worst case (the paper
quotes the deterministic 2.5-Tclk bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..control.async_controller import AsyncMultiphaseController
from ..control.params import BuckControlParams, StubGates, StubSensors
from ..control.sync_controller import SyncMultiphaseController
from ..sim.core import Simulator
from ..sim.signal import Signal
from ..sim.units import NS, US

CONDITIONS = ("HL", "UV", "OV", "OC", "ZC")


@dataclass
class ReactionMeasurement:
    condition: str
    latency: float          #: stimulus edge -> gate-drive edge (seconds)


def _mk(controller: str, frequency: Optional[float], n_phases: int,
        seed: int, params: Optional[BuckControlParams] = None):
    sim = Simulator(seed=seed)
    sensors = StubSensors(sim, n_phases)
    gates = StubGates(sim, n_phases)
    params = params or BuckControlParams(phase_dwell=100 * US)  # park rotation
    if controller == "sync":
        assert frequency is not None
        ctrl = SyncMultiphaseController(sim, sensors, gates, n_phases,
                                        frequency, params=params, trace=True)
    else:
        ctrl = AsyncMultiphaseController(sim, sensors, gates, n_phases,
                                         params=params, trace=True)
    return sim, sensors, gates, ctrl


def measure_one(controller: str, frequency: Optional[float],
                condition: str, offset: float, seed: int = 0) -> float:
    """One latency sample; ``offset`` staggers the stimulus against the
    clock (irrelevant for async)."""
    n = 2 if condition == "HL" else 1
    sim, sensors, gates, ctrl = _mk(controller, frequency, n, seed)
    t_setup = 200 * NS + offset

    if condition in ("UV", "OV"):
        sim.run_until(t_setup)
        t0 = sim.now
        (sensors.uv if condition == "UV" else sensors.ov).output.set(True)
        watch, edge = gates.gp[0], "rise"

    elif condition == "HL":
        # HL reaction of a stage that is *not* token-active: phase 1.
        sim.run_until(t_setup)
        t0 = sim.now
        sensors.uv.output.set(True)   # HL implies UV
        sensors.hl.output.set(True)
        watch, edge = gates.gp[1], "rise"

    elif condition == "OC":
        sensors.uv.output.set(True, 20 * NS)
        sim.run_until(t_setup)
        if not gates.gp[0].value:
            raise RuntimeError("charge cycle did not start")
        t0 = sim.now
        sensors.oc[0].output.set(True)
        watch, edge = gates.gp[0], "fall"

    elif condition == "ZC":
        sensors.uv.output.set(True, 20 * NS)
        sim.run_until(120 * NS)
        sensors.uv.output.set(False)
        sensors.oc[0].output.set(True)
        sim.run_until(170 * NS)
        sensors.oc[0].output.set(False)
        sim.run_until(t_setup + 60 * NS)
        if not gates.gn[0].value:
            raise RuntimeError("rectification did not start")
        t0 = sim.now
        sensors.zc[0].output.set(True)
        watch, edge = gates.gn[0], "fall"
    else:
        raise ValueError(f"unknown condition {condition!r}")

    sim.run(3 * US)
    edges = [t for t in watch.edges(edge) if t >= t0]
    if not edges:
        raise RuntimeError(
            f"{controller}/{condition}: no reaction observed")
    return edges[0] - t0


# ---------------------------------------------------------------------------
# Post-hoc reaction reads from recorded TraceSets
# ---------------------------------------------------------------------------
def reactions_from_trace(trace, stimulus: str, response: str,
                         stimulus_edge: str = "rise",
                         response_edge: str = "any",
                         t_start: float = 0.0) -> List[ReactionMeasurement]:
    """Stimulus-to-response latencies read from a recorded
    :class:`~repro.trace.TraceSet` (live-run observation, not the
    isolated Table I harness above).

    For every ``stimulus_edge`` of the ``stimulus`` digital channel at
    or after ``t_start``, the latency to the first ``response_edge`` of
    the ``response`` channel after it — e.g. ``hl`` rise to ``gp1``
    rise on a cached Fig. 6 run, with no re-simulation.  Stimulus edges
    with no subsequent response are skipped.
    """
    for name in (stimulus, response):
        if name not in trace:
            raise ValueError(
                f"trace has no channel {name!r} "
                f"(digital channels: "
                f"{[c for c in trace.channels if trace.probe(c).is_digital]})")
    stim = [t for t in trace.probe(stimulus).edges(stimulus_edge)
            if t >= t_start]
    resp = trace.probe(response).edges(response_edge)
    out: List[ReactionMeasurement] = []
    for t0 in stim:
        after = [t for t in resp if t > t0]
        if after:
            out.append(ReactionMeasurement(condition=stimulus,
                                           latency=after[0] - t0))
    return out


def worst_reaction_from_trace(trace, stimulus: str, response: str,
                              **kwargs) -> ReactionMeasurement:
    """The worst (largest) latency :func:`reactions_from_trace` finds.

    Raises :class:`ValueError` (naming both channels) when the trace
    contains no completed stimulus→response pair.
    """
    measurements = reactions_from_trace(trace, stimulus, response, **kwargs)
    if not measurements:
        raise ValueError(
            f"no {stimulus!r}->{response!r} reaction pairs in trace")
    return max(measurements, key=lambda m: m.latency)
