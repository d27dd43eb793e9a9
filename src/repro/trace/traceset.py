"""Columnar waveform container: the canonical trace representation.

A :class:`TraceSet` holds named *channels* — contiguous NumPy value
arrays — each referencing a named *time grid*.  Channels that were
sampled together (the analog solver's per-step records) share one grid;
channels with their own change instants (digital signal histories, the
per-lane grids of adaptive stepping) carry their own.  Two dtypes are
supported: ``float64`` for analog waveforms and ``bool`` for digital
signals.

Unlike the live recording columns it is copied from, a TraceSet is

- **columnar** — one contiguous array per channel, cheap to slice,
  window, decimate, and measure;
- **picklable** — plain dicts of ndarrays, so traced results cross
  process boundaries intact (``Session.sweep(trace=True, workers=N)``);
- **serializable** — :meth:`to_npz` / :meth:`from_npz` for standalone
  files, :meth:`to_arrays` / :meth:`from_arrays` for embedding into a
  result-cache entry, :meth:`to_jsonable` / :meth:`from_jsonable` for
  the JSON round-trip of :meth:`repro.system.RunResult.to_dict`;
- **compactable** — :meth:`compacted` drops rows that repeat both the
  timestamp and every channel value on their grid, which is exactly the
  shape of the duplicate rows an adaptive vector batch records for
  lanes idling while batch stragglers finish.

:meth:`probe` returns a :class:`ChannelView` — the adapter the waveform
metrics (:mod:`repro.metrics.waveform`) and the VCD writer consume, with
the same surface as a traced :class:`~repro.sim.signal.AnalogProbe`
(``times`` / ``values`` / ``window`` / ``value_at``) plus ``edges`` /
``value_at`` for digital channels.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

#: edge kinds accepted by :meth:`ChannelView.edges` (mirrors sim.signal)
RISE = "rise"
FALL = "fall"
ANY = "any"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class ChannelView:
    """Read-only probe-like adapter over one channel of a TraceSet.

    Duck-compatible with the traced parts of
    :class:`~repro.sim.signal.AnalogProbe` (analog channels) and with
    the ``times`` / ``values`` / ``edges`` / ``value_at`` readers of
    :class:`~repro.sim.signal.Signal` (digital channels), so metrics and
    the VCD writer accept either.
    """

    __slots__ = ("trace", "name")

    def __init__(self, trace: "TraceSet", name: str):
        if name not in trace:
            raise KeyError(f"trace has no channel {name!r}")
        self.trace = trace
        self.name = name

    # -- analog-probe surface ------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return self.trace.times(self.name)

    @property
    def values(self) -> np.ndarray:
        return self.trace.values(self.name)

    @property
    def is_digital(self) -> bool:
        return self.values.dtype == np.bool_

    def window(self, t_start: float, t_end: float
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t_start <= t <= t_end`` (times, values)."""
        times, values = self.times, self.values
        mask = (times >= t_start) & (times <= t_end)
        return times[mask], values[mask]

    def value_at(self, t: float) -> Union[float, bool]:
        """Channel value at time ``t``: linear interpolation for analog
        channels, the last driven value for digital ones."""
        times, values = self.times, self.values
        if len(times) == 0:
            raise ValueError(f"channel {self.name!r} has no samples")
        if self.is_digital:
            i = bisect_right(times, t)
            return bool(values[0] if i == 0 else values[i - 1])
        if t <= times[0]:
            return float(values[0])
        if t >= times[-1]:
            return float(values[-1])
        i = int(np.searchsorted(times, t, side="right"))
        t0, t1 = times[i - 1], times[i]
        v0, v1 = values[i - 1], values[i]
        if t1 == t0:
            return float(v1)
        return float(v0 + (v1 - v0) * (t - t0) / (t1 - t0))

    # -- digital-signal surface ----------------------------------------
    def edges(self, kind: str = ANY) -> List[float]:
        """Timestamps of value changes of the requested kind."""
        if kind not in (RISE, FALL, ANY):
            raise ValueError(f"unknown edge kind {kind!r}")
        times, values = self.times, self.values
        out: List[float] = []
        for i in range(1, len(times)):
            if values[i] != values[i - 1]:
                edge = RISE if values[i] else FALL
                if kind == ANY or kind == edge:
                    out.append(float(times[i]))
        return out

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "digital" if self.is_digital else "analog"
        return f"ChannelView({self.name!r}, {kind}, n={len(self)})"


class TraceSet:
    """Named waveform channels over named time grids.

    Construction is incremental: :meth:`add_grid` registers a strictly
    ordered time axis and :meth:`add_channel` attaches a value array to
    it (a digital channel is a bool array on its own grid).  Arrays are
    held as-is (no copies), so channels sharing a grid share one array
    object in memory and in the npz serialization; callers building from
    live recording buffers pass copies (see :mod:`repro.trace.recorder`).
    """

    def __init__(self) -> None:
        self._grids: Dict[str, np.ndarray] = {}
        #: channel name -> (grid name, values)
        self._channels: Dict[str, Tuple[str, np.ndarray]] = {}
        #: free-form JSON-safe annotations (e.g. ``v_ref``,
        #: ``controller``) — carried through every serialization, so
        #: measurements on a cached trace see the run's references
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_grid(self, name: str, times: Sequence[float]) -> "TraceSet":
        if name in self._grids:
            raise ValueError(f"grid {name!r} already exists")
        self._grids[name] = np.asarray(times, dtype=np.float64)
        return self

    def add_channel(self, name: str, values: Sequence[Any],
                    grid: str) -> "TraceSet":
        if name in self._channels:
            raise ValueError(f"channel {name!r} already exists")
        if grid not in self._grids:
            raise ValueError(f"unknown grid {grid!r} for channel {name!r}")
        arr = np.asarray(values)
        if arr.dtype != np.bool_:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self._grids[grid].shape:
            raise ValueError(
                f"channel {name!r} has {arr.shape[0] if arr.ndim else 0} "
                f"samples but grid {grid!r} has {len(self._grids[grid])}")
        self._channels[name] = (grid, arr)
        return self

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def channels(self) -> List[str]:
        return list(self._channels)

    @property
    def grids(self) -> List[str]:
        return list(self._grids)

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def grid_of(self, channel: str) -> str:
        return self._channels[channel][0]

    def times(self, channel: str) -> np.ndarray:
        return self._grids[self._channels[channel][0]]

    def grid(self, name: str) -> np.ndarray:
        return self._grids[name]

    def values(self, channel: str) -> np.ndarray:
        return self._channels[channel][1]

    def probe(self, channel: str) -> ChannelView:
        """Probe-like adapter for metrics / VCD (see :class:`ChannelView`)."""
        return ChannelView(self, channel)

    def views(self, channels: Optional[Sequence[str]] = None
              ) -> List[ChannelView]:
        return [ChannelView(self, c) for c in (channels or self.channels)]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the distinct arrays held (shared grids and
        aliased channel arrays are counted once)."""
        seen, total = set(), 0
        for arr in list(self._grids.values()) + [
                v for _, v in self._channels.values()]:
            if id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
        return total

    def n_samples(self, channel: str) -> int:
        return len(self._channels[channel][1])

    # ------------------------------------------------------------------
    # Transformations (each returns a new TraceSet)
    # ------------------------------------------------------------------
    def _grid_is_digital(self, gname: str) -> bool:
        """A change-history grid: every channel on it is boolean."""
        values = [v for g, v in self._channels.values() if g == gname]
        return bool(values) and all(v.dtype == np.bool_ for v in values)

    def _transform(self, masks: Dict[str, np.ndarray]) -> "TraceSet":
        out = TraceSet()
        out.meta = dict(self.meta)
        for gname, times in self._grids.items():
            out.add_grid(gname, times[masks[gname]])
        for cname, (gname, values) in self._channels.items():
            out.add_channel(cname, values[masks[gname]], grid=gname)
        return out

    def windowed(self, t_start: float, t_end: float) -> "TraceSet":
        """Restrict every channel to the ``[t_start, t_end]`` window.

        Sampled (analog) grids keep the rows with ``t_start <= t <=
        t_end``.  Change-history (digital) grids are *event lists*, not
        sample grids: the state held entering the window matters, so the
        window gets a synthetic row at ``t_start`` carrying each
        channel's value from just *before* the window, followed by every
        change with ``t_start <= t <= t_end`` — edge counts and episodes
        inside the window (boundary edges included) are preserved
        exactly.
        """
        out = TraceSet()
        out.meta = dict(self.meta)
        new_grids: Dict[str, np.ndarray] = {}
        selectors: Dict[str, Any] = {}
        for gname, times in self._grids.items():
            if self._grid_is_digital(gname):
                inside = (times >= t_start) & (times <= t_end)
                pre = np.nonzero(times < t_start)[0]
                if len(pre):
                    hold = int(pre[-1])
                    new_grids[gname] = np.concatenate(
                        ([t_start], times[inside]))
                    selectors[gname] = (
                        lambda v, h=hold, m=inside:
                        np.concatenate(([v[h]], v[m])))
                else:
                    new_grids[gname] = times[inside]
                    selectors[gname] = lambda v, m=inside: v[m]
            else:
                mask = (times >= t_start) & (times <= t_end)
                new_grids[gname] = times[mask]
                selectors[gname] = lambda v, m=mask: v[m]
        for gname in self._grids:
            out.add_grid(gname, new_grids[gname])
        for cname, (gname, values) in self._channels.items():
            out.add_channel(cname, selectors[gname](values), grid=gname)
        return out

    def decimated(self, factor: int) -> "TraceSet":
        """Keep every ``factor``-th row of each *sampled* grid (the
        first and last rows always survive, so windows stay anchored).

        Change-history (digital) grids pass through untouched: they are
        already minimal event lists, and thinning them would delete real
        edges rather than lower resolution.
        """
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        masks = {}
        for g, t in self._grids.items():
            if self._grid_is_digital(g):
                masks[g] = np.ones(len(t), dtype=bool)
                continue
            mask = np.zeros(len(t), dtype=bool)
            mask[::factor] = True
            if len(t):
                mask[-1] = True
            masks[g] = mask
        return self._transform(masks)

    def compacted(self) -> "TraceSet":
        """Drop rows that repeat both the timestamp and every channel
        value on their grid.

        This is exactly the signature of the duplicate rows an adaptive
        vector batch records for lanes that idle (zero-width steps)
        while batch stragglers finish: the compacted per-lane trace
        equals the one the scalar adaptive solver records.  Same-time
        rows whose values differ (e.g. a zero-width digital pulse) are
        preserved.
        """
        by_grid: Dict[str, List[np.ndarray]] = {g: [] for g in self._grids}
        for _, (gname, values) in self._channels.items():
            by_grid[gname].append(values)
        masks = {}
        for gname, times in self._grids.items():
            n = len(times)
            dup = np.zeros(n, dtype=bool)
            if n > 1:
                dup[1:] = times[1:] == times[:-1]
                for values in by_grid[gname]:
                    dup[1:] &= values[1:] == values[:-1]
            masks[gname] = ~dup
        return self._transform(masks)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_arrays(self, prefix: str = ""
                  ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Flatten into (manifest, arrays) for embedding in an npz.

        The manifest is JSON-safe (grid-name list plus ``(channel,
        grid-index)`` pairs); the arrays dict maps ``{prefix}grid{j}`` /
        ``{prefix}chan{j}`` to the held ndarrays (no copies).
        """
        arrays: Dict[str, np.ndarray] = {}
        grid_names = list(self._grids)
        for j, g in enumerate(grid_names):
            arrays[f"{prefix}grid{j}"] = self._grids[g]
        channels = []
        for j, (name, (gname, values)) in enumerate(self._channels.items()):
            arrays[f"{prefix}chan{j}"] = values
            channels.append([name, grid_names.index(gname)])
        return {"grids": grid_names, "channels": channels,
                "meta": dict(self.meta)}, arrays

    @classmethod
    def from_arrays(cls, manifest: Mapping[str, Any],
                    arrays: Mapping[str, np.ndarray],
                    prefix: str = "") -> "TraceSet":
        ts = cls()
        grid_names = list(manifest["grids"])
        for j, g in enumerate(grid_names):
            ts.add_grid(g, np.asarray(arrays[f"{prefix}grid{j}"]))
        for j, (name, gi) in enumerate(manifest["channels"]):
            ts.add_channel(name, np.asarray(arrays[f"{prefix}chan{j}"]),
                           grid=grid_names[int(gi)])
        ts.meta = dict(manifest.get("meta", {}))
        return ts

    def to_npz(self, path) -> None:
        """Write a standalone ``.npz`` (manifest embedded as JSON)."""
        manifest, arrays = self.to_arrays()
        np.savez(path, __traceset__=np.array(json.dumps(manifest)), **arrays)

    @classmethod
    def from_npz(cls, path) -> "TraceSet":
        with np.load(path) as data:
            manifest = json.loads(str(data["__traceset__"][()]))
            return cls.from_arrays(manifest, data)

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-primitive form (floats round-trip exactly through
        ``repr``, so the JSON round-trip is bit-preserving)."""
        return {
            "meta": dict(self.meta),
            "grids": {g: times.tolist()
                      for g, times in self._grids.items()},
            "channels": {
                name: {
                    "grid": gname,
                    "dtype": "bool" if values.dtype == np.bool_ else "float",
                    "values": values.tolist(),
                }
                for name, (gname, values) in self._channels.items()
            },
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "TraceSet":
        ts = cls()
        for g, times in payload["grids"].items():
            ts.add_grid(g, times)
        for name, ch in payload["channels"].items():
            dtype = bool if ch.get("dtype") == "bool" else np.float64
            ts.add_channel(name, np.asarray(ch["values"], dtype=dtype),
                           grid=ch["grid"])
        ts.meta = dict(payload.get("meta", {}))
        return ts

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_vcd(self, path: str,
               channels: Optional[Sequence[str]] = None, **kwargs) -> None:
        """Dump channels as a VCD file (digital channels as 1-bit wires,
        analog as ``real`` variables) — so a cached traced run can be
        inspected in GTKWave without re-simulating."""
        from ..sim.vcd import dump_vcd
        dump_vcd(path, self.views(channels), **kwargs)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Exact (bit-level) equality of structure, grids, and values:
        ``-0.0`` differs from ``0.0``, and a NaN sample equals the same
        NaN."""
        if not isinstance(other, TraceSet):
            return NotImplemented
        if (self.meta != other.meta
                or list(self._grids) != list(other._grids)
                or list(self._channels) != list(other._channels)):
            return False
        for g, times in self._grids.items():
            if not _same_bits(times, other._grids[g]):
                return False
        for name, (gname, values) in self._channels.items():
            ogname, ovalues = other._channels[name]
            if gname != ogname or not _same_bits(values, ovalues):
                return False
        return True

    __hash__ = None   # mutable container

    def __repr__(self) -> str:
        rows = max((len(t) for t in self._grids.values()), default=0)
        return (f"TraceSet({len(self._channels)} channels, "
                f"{len(self._grids)} grids, <= {rows} rows)")
