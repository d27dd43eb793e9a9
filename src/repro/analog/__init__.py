"""Analog substrate: buck power stage ODE, coils, sensors, gate drivers.

Replaces the paper's Verilog-A + Cadence Incisive AMS setup with a
pure-Python piecewise-linear model co-simulated by the discrete-event
kernel.
"""

from .buck import BuckPhase, MultiphasePowerStage, ShortCircuitError, make_power_stage
from .coil import (
    COIL_LIBRARY,
    Coil,
    dcr_model,
    i_sat_model,
    library_values,
    make_coil,
    nearest_coil,
    smallest_coil_for_peak,
)
from .gate_driver import GateDriver, GateDriverBank
from .load import LoadProfile
from .sensors import ABOVE, BELOW, BuckReferences, Comparator, SensorBank
from .solver import AnalogSolver
from .stepping import STEPPING_MODES, SteppingPolicy

__all__ = [
    "BuckPhase", "MultiphasePowerStage", "ShortCircuitError", "make_power_stage",
    "Coil", "COIL_LIBRARY", "make_coil", "nearest_coil", "dcr_model",
    "i_sat_model", "library_values", "smallest_coil_for_peak",
    "GateDriver", "GateDriverBank",
    "LoadProfile",
    "Comparator", "SensorBank", "BuckReferences", "ABOVE", "BELOW",
    "AnalogSolver", "SteppingPolicy", "STEPPING_MODES",
]
