"""Digital substrate: gates, sequential elements, clocks, synchronizers.

Behavioural stand-ins for the paper's TSMC 90 nm gate library, with
explicit metastability models in the flip-flop and mutex.
"""

from .celement import AsymmetricCElement, CElement
from .clock import Clock, PhaseActivator
from .gates import (
    DEFAULT_GATE_DELAY,
    Gate,
    and_gate,
    buf_gate,
    nand_gate,
    nor_gate,
    not_gate,
    or_gate,
    xor_gate,
)
from .latches import DFlipFlop, SRLatch
from .mutex import Mutex
from .synchronizer import SynchronizerBank, TwoFlopSynchronizer
from .timer import HandshakeTimer

__all__ = [
    "Gate", "DEFAULT_GATE_DELAY",
    "and_gate", "or_gate", "nand_gate", "nor_gate", "not_gate", "xor_gate",
    "buf_gate",
    "CElement", "AsymmetricCElement",
    "SRLatch", "DFlipFlop",
    "Mutex",
    "Clock", "PhaseActivator",
    "TwoFlopSynchronizer", "SynchronizerBank",
    "HandshakeTimer",
]
