"""Waveform measurements: ripple, overshoot, dips, settling.

These extract the quantities the paper reads off its Fig. 6 waveforms:
steady-state voltage ripple, the startup overshoot and its OV episodes,
the load-step dip, and settling behaviour.

Every ``probe`` argument accepts either a live
:class:`~repro.sim.signal.AnalogProbe` or a
:class:`~repro.trace.ChannelView` from a :class:`~repro.trace.TraceSet`
(``trace.probe("v_load")``) — so the same measurements run on a live
system and on a cached traced result without re-simulating.  The
signal-window helpers (:func:`edge_count`, :func:`episodes`,
:func:`duty_in_window`) likewise accept a :class:`Signal` or a digital
ChannelView.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.signal import AnalogProbe, Signal


def _window_values(probe, t_start: float, t_end: float):
    """Windowed samples, raising a *named* error when the window is
    empty (the probe/channel name makes multi-signal pipelines
    debuggable)."""
    _, values = probe.window(t_start, t_end)
    if len(values) == 0:
        raise ValueError(
            f"{probe.name!r}: no samples in [{t_start}, {t_end}]")
    return values


def ripple(probe: AnalogProbe, t_start: float, t_end: float) -> float:
    """Peak-to-peak excursion of the traced waveform inside a window."""
    values = _window_values(probe, t_start, t_end)
    return max(values) - min(values)


def overshoot(probe: AnalogProbe, target: float, t_start: float,
              t_end: float) -> float:
    """How far the waveform exceeds ``target`` inside the window (>= 0)."""
    values = _window_values(probe, t_start, t_end)
    return max(0.0, max(values) - target)


def undershoot(probe: AnalogProbe, target: float, t_start: float,
               t_end: float) -> float:
    """How far the waveform drops below ``target`` inside the window."""
    values = _window_values(probe, t_start, t_end)
    return max(0.0, target - min(values))


def settling_time(probe: AnalogProbe, target: float, tolerance: float,
                  t_start: float = 0.0) -> Optional[float]:
    """First time after ``t_start`` from which the waveform stays within
    ``target +- tolerance`` until the end of the trace.  None if never."""
    times, values = probe.times, probe.values
    settled_at: Optional[float] = None
    for t, v in zip(times, values):
        if t < t_start:
            continue
        if abs(v - target) <= tolerance:
            if settled_at is None:
                settled_at = t
        else:
            settled_at = None
    return settled_at


def edge_count(signal: Signal, kind: str, t_start: float,
               t_end: float) -> int:
    """Number of ``kind`` edges of a traced signal inside the window."""
    return sum(1 for t in signal.edges(kind) if t_start <= t <= t_end)


def episodes(signal: Signal, t_start: float, t_end: float) -> List[Tuple[float, float]]:
    """High intervals of a traced signal clipped to the window."""
    out: List[Tuple[float, float]] = []
    times, values = signal.times.tolist(), signal.values.tolist()
    if not times:
        return out
    start: Optional[float] = None
    if values[0] and times[0] <= t_start:
        start = t_start
    for t, v in zip(times[1:], values[1:]):
        if v and start is None and t <= t_end:
            start = max(t, t_start)
        elif not v and start is not None:
            end = min(t, t_end)
            if end > start:
                out.append((start, end))
            start = None
    if start is not None and t_end > start:
        out.append((start, t_end))
    return out


def duty_in_window(signal: Signal, t_start: float, t_end: float) -> float:
    """Fraction of the window the signal spends high."""
    span = t_end - t_start
    if span <= 0:
        raise ValueError(
            f"{signal.name!r}: empty window [{t_start}, {t_end}]")
    total = sum(e - s for s, e in episodes(signal, t_start, t_end))
    return total / span


def sample_series(probe: AnalogProbe, t_start: float, t_end: float,
                  n_points: int) -> Tuple[List[float], List[float]]:
    """Uniformly resample a traced waveform (for ASCII rendering)."""
    if n_points < 2:
        raise ValueError("need at least two points")
    ts = [t_start + (t_end - t_start) * i / (n_points - 1)
          for i in range(n_points)]
    return ts, [probe.value_at(t) for t in ts]


def ascii_waveform(probe: AnalogProbe, t_start: float, t_end: float,
                   width: int = 80, height: int = 12,
                   title: str = "") -> str:
    """Render a traced waveform as an ASCII chart (Fig. 6-style view)."""
    ts, vs = sample_series(probe, t_start, t_end, width)
    lo, hi = min(vs), max(vs)
    span = hi - lo or 1.0
    rows = [[" "] * width for _ in range(height)]
    for x, v in enumerate(vs):
        y = int((v - lo) / span * (height - 1))
        rows[height - 1 - y][x] = "*"
    lines = [title] if title else []
    lines.append(f"{hi:8.3f} +" + "-" * width + "+")
    for row in rows:
        lines.append(" " * 9 + "|" + "".join(row) + "|")
    lines.append(f"{lo:8.3f} +" + "-" * width + "+")
    lines.append(f"{'':9}{t_start * 1e6:<10.2f}{'time (us)':^{width - 20}}"
                 f"{t_end * 1e6:>10.2f}")
    return "\n".join(lines)
