"""Trace recording buffers feeding :class:`~repro.trace.TraceSet`.

:class:`BatchTraceRecorder` is the vector solver's waveform buffer: one
append per array step (per-step ``(N,)`` voltage and ``(N, P)`` current
snapshots, plus the scalar-or-per-lane step time), finalized once into
stacked column arrays from which per-lane :class:`TraceSet` objects are
sliced.  In adaptive mode a lane that idled while batch stragglers
finished repeats its last boundary; :meth:`lane_trace_set` compacts
those duplicate rows away by default (see :meth:`TraceSet.compacted`).

:func:`probe_trace_set` builds the scalar solver's TraceSet from its
live :class:`~repro.sim.signal.AnalogProbe` append buffers — the probes
stay the in-flight recording surface (and the legacy access path), the
TraceSet is the canonical result.  :func:`add_signals` appends digital
:class:`~repro.sim.signal.Signal` histories as bool channels.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .traceset import TraceSet

#: grid name shared by the analog channels of one lane/run
ANALOG_GRID = "t"


class BatchTraceRecorder:
    """Row-append buffer for an ``(N,)``-lane vector solver."""

    def __init__(self, n_lanes: int, n_phases: int):
        self.n_lanes = n_lanes
        self.n_phases = n_phases
        self.times: List = []       # per-step scalar t or (N,) per-lane t
        self.v: List[np.ndarray] = []        # per-step (N,) copies
        self.i: List[np.ndarray] = []        # per-step (N, P) copies
        self._stacked = None        # (rows, T, V, I) cache

    def append(self, t, v_out: np.ndarray, currents: np.ndarray) -> None:
        self.times.append(t.copy() if np.ndim(t) else t)
        self.v.append(v_out.copy())
        self.i.append(currents.copy())

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    def _finalize(self):
        """Stack the row buffers into column-sliceable arrays (cached
        until more rows arrive)."""
        rows = len(self.times)
        if self._stacked is None or self._stacked[0] != rows:
            times = self.times
            if any(np.ndim(t) for t in times):
                # adaptive batches mix scalar rows (the shared t=0 start
                # record) with per-lane (N,) rows; broadcast the scalars
                times = [np.full(self.n_lanes, t) if np.ndim(t) == 0 else t
                         for t in times]
            T = np.array(times)
            V = np.array(self.v) if rows else np.empty((0, self.n_lanes))
            I = (np.array(self.i) if rows
                 else np.empty((0, self.n_lanes, self.n_phases)))
            self._stacked = (rows, T, V, I)
        return self._stacked

    def lane_trace_set(self, lane: int, compact: bool = True) -> TraceSet:
        """One lane's analog channels as a TraceSet (``v_load``,
        ``i_coil{k}``, ``i_total`` on the shared :data:`ANALOG_GRID`).

        ``compact=False`` keeps the raw rows — including the duplicate
        idle-lane rows of adaptive batches — which is what the trace
        memory benchmark measures the compaction win against.
        """
        _, T, V, I = self._finalize()
        times = np.ascontiguousarray(T if T.ndim == 1 else T[:, lane])
        ts = TraceSet().add_grid(ANALOG_GRID, times)
        ts.add_channel("v_load", np.ascontiguousarray(V[:, lane]),
                       grid=ANALOG_GRID)
        lane_i = I[:, lane, :]
        for k in range(self.n_phases):
            ts.add_channel(f"i_coil{k}", np.ascontiguousarray(lane_i[:, k]),
                           grid=ANALOG_GRID)
        # left-to-right reduction matches the scalar solver's running sum
        ts.add_channel("i_total", np.add.reduce(lane_i, axis=1),
                       grid=ANALOG_GRID)
        return ts.compacted() if compact else ts


def probe_trace_set(v_probe, i_probes: Sequence, i_total_probe) -> TraceSet:
    """The scalar solver's probes as one TraceSet (shared time grid)."""
    if not v_probe.trace:
        raise ValueError("solver ran with trace=False; no waveforms kept")
    ts = TraceSet().add_grid(ANALOG_GRID,
                             np.asarray(v_probe.times, dtype=np.float64))
    ts.add_channel("v_load", np.asarray(v_probe.values, dtype=np.float64),
                   grid=ANALOG_GRID)
    for k, probe in enumerate(i_probes):
        ts.add_channel(f"i_coil{k}",
                       np.asarray(probe.values, dtype=np.float64),
                       grid=ANALOG_GRID)
    ts.add_channel("i_total",
                   np.asarray(i_total_probe.values, dtype=np.float64),
                   grid=ANALOG_GRID)
    return ts


def add_signals(ts: TraceSet, signals: Iterable) -> TraceSet:
    """Append traced digital :class:`Signal` histories as bool channels
    (each on its own grid, named after the signal)."""
    for signal in signals:
        ts.add_signal(signal.name, signal.history)
    return ts
