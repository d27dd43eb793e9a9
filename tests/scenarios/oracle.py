"""The one comparison rule the scenario suites share.

Two runs that a property promises to agree are compared as whole
:class:`~repro.RunResult` objects with ``==``, so the attached
:class:`~repro.trace.TraceSet` (analog channels, comparator edges,
``gp``/``gn`` and token/act channels) is compared bit for bit along
with every other field; a field added to ``RunResult`` later is compared
without editing any list.  The only fields blanked first are the kernel
activity counters the property lets differ:

- across backends, ``events_delivered`` (the vector batch counts its
  solver tick on a non-lane simulator); fixed stepping still checks
  ``scalar = vector + solver_ticks``;
- across gating modes, the two clock-edge counters as well.

A run also carries its lane's final ``Simulator.rng`` state.  That
generator is a lane's only source of randomness, so equal states pin
every draw by value, even one that no result field shows.

The fixed-vs-adaptive drift check lives here too; each suite passes its
own bounds.
"""

import dataclasses
from typing import NamedTuple, Optional

from repro import RunResult, Session
from repro.scenarios import ScenarioSpec
from repro.system import SystemConfig

#: the counters gating may change: the activity reduction is its point
GATING_COUNTERS = ("events_delivered", "clock_edges_simulated",
                   "clock_edges_skipped")


class Run(NamedTuple):
    """One lane as run: the spec, its expanded config, the result and
    the lane's ``Simulator.rng`` state after the run."""
    spec: ScenarioSpec
    config: SystemConfig
    result: RunResult
    rng: tuple


def variant(spec: ScenarioSpec, **overrides) -> ScenarioSpec:
    """``spec`` under its own name and seed with ``overrides`` applied
    (a stepping or gating mode, say)."""
    return ScenarioSpec(spec.name,
                        overrides=dict(spec.overrides, **overrides),
                        seed=spec.seed)


def runs(session: Session, specs, **sweep_kw):
    """Sweep ``specs`` on ``session`` and keep each lane's final
    ``Simulator.rng`` state (``keep=True`` bypasses the cache)."""
    return [Run(p.spec, p.config, p.result, p.handle.sim.rng.getstate())
            for p in session.sweep(specs, keep=True, **sweep_kw)]


def blind(result: RunResult, *counters: str) -> RunResult:
    """``result`` with the named activity counters zeroed."""
    return dataclasses.replace(result, **dict.fromkeys(counters, 0))


def differing(a: RunResult, b: RunResult):
    """Names of the fields on which two results differ."""
    return [f.name for f in dataclasses.fields(a)
            if getattr(a, f.name) != getattr(b, f.name)]


def repro(run: Run, backend: str) -> str:
    """One pasteable line that replays ``run`` on ``backend``."""
    spec = run.spec
    return (f"repro: Session(backend={backend!r}, cache='off').run("
            f"ScenarioSpec({spec.name!r}, overrides={spec.overrides!r}, "
            f"seed={spec.seed!r}))")


def where(run: Run, backend: Optional[str] = None) -> str:
    """The failing cell: spec name, backend and modes."""
    cfg = run.config
    head = f"{backend}/" if backend else ""
    return f"{run.spec.name} [{head}{cfg.stepping}/gating={cfg.gating}]"


def check_backends_agree(s_run: Run, v_run: Run) -> None:
    """Scalar and vector runs of one spec are equal up to
    ``events_delivered`` and end with equal ``Simulator.rng`` states."""
    at, line = where(s_run), repro(v_run, "vector")
    s = blind(s_run.result, "events_delivered")
    v = blind(v_run.result, "events_delivered")
    assert v == s, (
        f"{at}: backends diverged on {differing(s, v)}\n"
        + "".join(f"  {name}: scalar {getattr(s, name)!r}, "
                  f"vector {getattr(v, name)!r}\n"
                  for name in differing(s, v) if name != "trace")
        + f"  {line}")
    if s_run.config.stepping == "fixed":
        # the same lane events fire on both backends: the scalar run
        # delivers them plus one solver tick event per micro-step (the
        # vector batch's tick counts on a non-lane simulator)
        s, v = s_run.result, v_run.result
        assert s.events_delivered == v.events_delivered + s.solver_ticks, (
            f"{at}: delivered lane events diverged across backends "
            f"(scalar {s.events_delivered} = vector {v.events_delivered}"
            f" + {s.solver_ticks} ticks expected)\n  {line}")
    assert v_run.rng == s_run.rng, (
        f"{at}: Simulator.rng state diverged across backends\n  {line}")


def check_stepping_drift(fixed_run: Run, adaptive_run: Run, backend: str, *,
                         peak_tol: float, ripple_rel: float,
                         ripple_abs: float, cycle_rel: float,
                         cycle_slack: Optional[int] = None) -> None:
    """Adaptive stepping stays within the given drift of the fixed grid.

    Peak current drifts less than ``peak_tol``; ripple less than
    ``max(ripple_abs, ripple_rel * fixed ripple)``; ``v_final`` stays
    inside the ripple envelope; the OV episode count is equal.  The
    total cycle count drifts, relative to the fixed run's, strictly
    less than ``cycle_rel``, or with a ``cycle_slack`` by at most
    ``max(cycle_rel * fixed total, cycle_slack)``.
    """
    fixed, adaptive = fixed_run.result, adaptive_run.result
    at, line = where(adaptive_run, backend), repro(adaptive_run, backend)
    peak_drift = abs(adaptive.peak_coil_current - fixed.peak_coil_current)
    assert peak_drift < peak_tol, (
        f"{at}: adaptive peak current drifted "
        f"{peak_drift * 1e3:.2f} mA\n  {line}")
    ripple_drift = abs(adaptive.ripple - fixed.ripple)
    assert ripple_drift < max(ripple_abs, ripple_rel * fixed.ripple), (
        f"{at}: adaptive ripple drifted {ripple_drift * 1e3:.1f} mV "
        f"(fixed {fixed.ripple * 1e3:.1f} mV)\n  {line}")
    # V_final samples a rippling waveform: a phase shift of the
    # switching pattern moves it within the ripple envelope, never
    # outside it
    assert abs(adaptive.v_final - fixed.v_final) <= \
        max(fixed.ripple, ripple_abs), (
        f"{at}: adaptive V_final left the ripple envelope\n  {line}")
    tot_f, tot_a = sum(fixed.cycles), sum(adaptive.cycles)
    if cycle_slack is None:
        drift = (abs(tot_f - tot_a) / tot_f if tot_f
                 else float(tot_a != 0))
        cycles_ok = drift < cycle_rel
    else:
        cycles_ok = abs(tot_f - tot_a) <= max(cycle_rel * tot_f, cycle_slack)
    assert cycles_ok, (
        f"{at}: cycle count drifted ({tot_f} -> {tot_a})\n  {line}")
    assert adaptive.ov_events == fixed.ov_events, (
        f"{at}: OV episode count changed "
        f"({fixed.ov_events} -> {adaptive.ov_events})\n  {line}")
