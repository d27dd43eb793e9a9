"""Reproduction of Sokolov et al., "Benefits of Asynchronous Control for
Analog Electronics: Multiphase Buck Case Study" (DATE 2017).

Layers (README "Layout" maps them to paths):

- :mod:`repro.sim` — discrete-event kernel (signals, processes, VCD);
- :mod:`repro.analog` — buck power stage ODE, coils, sensors, gate drivers;
- :mod:`repro.digital` — flip-flops, synchronizers, clocks, timers;
- :mod:`repro.a2a` — the WAIT-family analog-to-asynchronous interfaces;
- :mod:`repro.stg` — STGs, verification, synthesis (the A4A flow backend);
- :mod:`repro.control` — the synchronous and asynchronous controllers;
- :mod:`repro.trace` — columnar :class:`TraceSet` waveform subsystem
  (windowing, compaction, npz/VCD export, cacheable traced results);
- :mod:`repro.metrics` — waveform and reaction-time measurements;
- :mod:`repro.experiments` — Table I / Fig. 6 / Fig. 7 reproduction;
- :mod:`repro.system` — :class:`BuckSystem`, the assembled co-simulation;
- :mod:`repro.session` — :class:`Session`, the unified front door
  (backend selection, worker sharding, content-addressed result cache).
"""

from importlib import import_module

from .system import BuckSystem, RunResult, SystemConfig

__version__ = "1.1.0"

#: lazily re-exported names (PEP 562): keeps ``import repro`` free of the
#: scenario, session and trace machinery (and NumPy) until it is used
_LAZY_EXPORTS = {
    "Session": ".session",
    "ResultCache": ".session",
    "default_session": ".session",
    "session_from_env": ".session",
    "ScenarioSpec": ".scenarios",
    "Sweep": ".scenarios",
    "TraceSet": ".trace",
    "ChannelView": ".trace",
}

__all__ = ["BuckSystem", "SystemConfig", "RunResult", "__version__",
           *sorted(_LAZY_EXPORTS)]


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)
