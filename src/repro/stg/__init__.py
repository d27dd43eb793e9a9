"""STG formalism and the A4A design flow backend.

Signal transition graphs (Petri nets with signal-edge-labelled
transitions), reachability analysis, verification (consistency, deadlock-
freeness, output persistence, CSC, design invariants), Quine–McCluskey
based speed-independent synthesis, parallel composition, gate-level
conformance/hazard checking, and a ``.g``-format parser — our
reimplementation of the Workcraft/Petrify/MPSat backend stack the paper
automates.
"""

from .circuit import (
    CircuitGate,
    CircuitReport,
    CircuitViolation,
    GateLevelCircuit,
    verify_circuit,
)
from .csc import CSCConflict, csc_report, find_csc_conflicts
from .composition import CompositionError, compose
from .models import ALL_MODELS
from .parser import ParseError, parse_g, write_g
from .petri import Marking, PetriNet, PetriNetError, marking_key
from .reachability import (
    ConsistencyViolation,
    ReachabilityError,
    State,
    StateGraph,
)
from .stg import STG, Label, SignalType
from .synthesis import (
    CSCConflictError,
    GCImplementation,
    SignalFunction,
    SynthesisError,
    SynthesisResult,
    synthesize,
    synthesize_complex_gate,
    synthesize_gc,
)
from .verilog import testbench_skeleton, to_verilog
from .verification import (
    CheckResult,
    VerificationReport,
    check_consistency,
    check_csc,
    check_deadlock_freeness,
    check_mutual_exclusion,
    check_never_all,
    check_output_persistence,
    check_safeness,
    check_usc,
    verify,
)

__all__ = [
    "PetriNet", "PetriNetError", "Marking", "marking_key",
    "STG", "Label", "SignalType",
    "StateGraph", "State", "ReachabilityError", "ConsistencyViolation",
    "verify", "VerificationReport", "CheckResult",
    "check_safeness", "check_consistency", "check_deadlock_freeness",
    "check_output_persistence", "check_csc", "check_usc",
    "check_mutual_exclusion", "check_never_all",
    "synthesize", "synthesize_complex_gate", "synthesize_gc",
    "SynthesisResult", "SignalFunction", "GCImplementation",
    "SynthesisError", "CSCConflictError",
    "compose", "CompositionError",
    "parse_g", "write_g", "ParseError",
    "GateLevelCircuit", "CircuitGate", "verify_circuit",
    "CircuitReport", "CircuitViolation",
    "ALL_MODELS",
    "find_csc_conflicts", "csc_report", "CSCConflict",
    "to_verilog", "testbench_skeleton",
]
