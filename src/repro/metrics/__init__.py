"""Measurement utilities: waveform analysis and reaction-time harness."""

from .reaction import (
    CONDITIONS,
    ReactionMeasurement,
    reactions_from_trace,
    worst_reaction_from_trace,
)
from .waveform import (
    ascii_waveform,
    duty_in_window,
    edge_count,
    episodes,
    overshoot,
    ripple,
    sample_series,
    settling_time,
    undershoot,
)

__all__ = [
    "ripple", "overshoot", "undershoot", "settling_time",
    "edge_count", "episodes", "duty_in_window",
    "sample_series", "ascii_waveform",
    "ReactionMeasurement", "CONDITIONS",
    "reactions_from_trace", "worst_reaction_from_trace",
]
