"""Trace recording buffers feeding :class:`~repro.trace.TraceSet`.

:class:`BatchTraceRecorder` is the vector solver's waveform buffer:
each array step writes one row into preallocated numpy blocks (``(N,)``
voltages, ``(N, P)`` currents, and the step time: one column in fixed
mode, one per lane in adaptive mode), which double when full.  Per-lane
:class:`TraceSet` objects copy their columns out of the blocks.  In
adaptive mode a lane that idled while batch stragglers finished repeats
its last boundary; :meth:`lane_trace_set` compacts those duplicate rows
away by default (see :meth:`TraceSet.compacted`).

:func:`probe_trace_set` builds the scalar solver's TraceSet from its
live :class:`~repro.sim.signal.AnalogProbe` columns, and
:func:`add_signals` appends digital :class:`~repro.sim.signal.Signal`
change histories as bool channels.  Both copy: a numpy view of an
``array`` column would pin it, and the run's next append would raise
:class:`BufferError`.

Neither recorder stores ``i_total``: :func:`phase_sum` derives it from
the coil columns, added in phase order from ``0.0`` exactly as a running
``total += i`` would.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .traceset import TraceSet

#: grid name shared by the analog channels of one lane/run
ANALOG_GRID = "t"

#: rows a recorder's blocks hold before their first doubling
_FIRST_ROWS = 1024


def _analog_trace_set(times: np.ndarray, v_load: np.ndarray,
                     currents: Sequence[np.ndarray]) -> TraceSet:
    """One run's analog channels on the shared :data:`ANALOG_GRID`:
    ``v_load``, ``i_coil{k}`` and the derived ``i_total`` (the arrays
    are held, not copied)."""
    ts = TraceSet().add_grid(ANALOG_GRID, times)
    ts.add_channel("v_load", v_load, grid=ANALOG_GRID)
    for k, column in enumerate(currents):
        ts.add_channel(f"i_coil{k}", column, grid=ANALOG_GRID)
    return ts.add_channel("i_total", phase_sum(currents), grid=ANALOG_GRID)


def phase_sum(currents: Sequence[np.ndarray]) -> np.ndarray:
    """The ``i_total`` channel: the coil columns added in phase order
    onto zeros — bit for bit the running sum ``total = 0.0; total += i``
    (so ``-0.0`` currents sum to ``+0.0``, and no pairwise reduction
    reorders eight or more phases)."""
    total = np.zeros(len(currents[0]))
    for column in currents:
        total += column
    return total


class BatchTraceRecorder:
    """Row blocks for an ``(N,)``-lane vector solver.

    ``lane_times`` selects one time column per lane (adaptive stepping,
    where every lane keeps its own grid) over one shared column.
    """

    def __init__(self, n_lanes: int, n_phases: int,
                 lane_times: bool = False):
        self.n_lanes = n_lanes
        self.n_phases = n_phases
        self._rows = 0
        self._t = np.empty((_FIRST_ROWS, n_lanes) if lane_times
                           else _FIRST_ROWS)
        self._v = np.empty((_FIRST_ROWS, n_lanes))
        self._i = np.empty((_FIRST_ROWS, n_lanes, n_phases))

    def append(self, t, v_out: np.ndarray, currents: np.ndarray) -> None:
        """Write one row; a scalar ``t`` fills a per-lane time row."""
        row = self._rows
        if row == len(self._v):
            self._t, self._v, self._i = (
                _doubled(block, row) for block in (self._t, self._v,
                                                   self._i))
        self._t[row] = t
        self._v[row] = v_out
        self._i[row] = currents
        self._rows = row + 1

    def __len__(self) -> int:
        return self._rows

    def lane_trace_set(self, lane: int, compact: bool = True) -> TraceSet:
        """One lane's analog channels as a TraceSet (``v_load``,
        ``i_coil{k}``, ``i_total`` on the shared :data:`ANALOG_GRID`),
        copied out of the blocks.

        ``compact=False`` keeps the raw rows — including the duplicate
        idle-lane rows of adaptive batches — which is what the trace
        memory test measures the compaction win against.
        """
        rows = self._rows
        times = self._t[:rows]
        lane_i = self._i[:rows, lane]
        ts = _analog_trace_set(
            np.array(times if times.ndim == 1 else times[:, lane]),
            np.array(self._v[:rows, lane]),
            [np.array(lane_i[:, k]) for k in range(self.n_phases)])
        return ts.compacted() if compact else ts


def _doubled(block: np.ndarray, rows: int) -> np.ndarray:
    """``block``'s first ``rows`` rows in a new block of twice as many."""
    out = np.empty((2 * rows,) + block.shape[1:])
    out[:rows] = block[:rows]
    return out


def probe_trace_set(v_probe, i_probes: Sequence) -> TraceSet:
    """The scalar solver's probes (one shared time column) as one
    TraceSet."""
    if not v_probe.trace:
        raise ValueError("solver ran with trace=False; no waveforms kept")
    return _analog_trace_set(np.array(v_probe.times), np.array(v_probe.values),
                            [np.array(probe.values) for probe in i_probes])


def add_signals(ts: TraceSet, signals: Iterable) -> TraceSet:
    """Append traced digital :class:`Signal` change histories as bool
    channels (each on its own grid, named after the signal), copied out
    of the signals' live columns."""
    for signal in signals:
        ts.add_grid(signal.name, np.array(signal.times))
        ts.add_channel(signal.name, np.array(signal.values, dtype=bool),
                       grid=signal.name)
    return ts
