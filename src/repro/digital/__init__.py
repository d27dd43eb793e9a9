"""Digital substrate: flip-flops, synchronizers, clocks, timers.

Behavioural stand-ins for the sequential side of the paper's TSMC 90 nm
netlist: the synchronous controller's clocks and 2-flop synchronizers,
and the asynchronous controller's handshake timers, with an explicit
metastability model in the flip-flop.
"""

from .clock import Clock, PhaseActivator
from .latches import DEFAULT_GATE_DELAY, DFlipFlop
from .synchronizer import SynchronizerBank, TwoFlopSynchronizer
from .timer import HandshakeTimer

__all__ = [
    "DEFAULT_GATE_DELAY", "DFlipFlop",
    "Clock", "PhaseActivator",
    "TwoFlopSynchronizer", "SynchronizerBank",
    "HandshakeTimer",
]
