"""Unit tests for the buck power stage ODE model.

Stage construction and stepping come from the shared ``stage_factory`` /
``run_stage`` fixtures in ``tests/conftest.py``.
"""

import math

import pytest

from repro.analog import (
    BuckPhase,
    LoadProfile,
    MultiphasePowerStage,
    ShortCircuitError,
    make_coil,
    make_power_stage,
)
from repro.sim import NS, UH, US


class TestBuckPhaseSwitching:
    def test_short_circuit_pmos_while_nmos(self):
        phase = BuckPhase(0, make_coil(4.7 * UH))
        phase.set_nmos(True)
        with pytest.raises(ShortCircuitError):
            phase.set_pmos(True)

    def test_short_circuit_nmos_while_pmos(self):
        phase = BuckPhase(0, make_coil(4.7 * UH))
        phase.set_pmos(True)
        with pytest.raises(ShortCircuitError):
            phase.set_nmos(True)

    def test_break_before_make_is_legal(self):
        phase = BuckPhase(0, make_coil(4.7 * UH))
        phase.set_pmos(True)
        phase.set_pmos(False)
        phase.set_nmos(True)
        assert phase.nmos_on


class TestPhaseDynamics:
    def test_pmos_on_current_slew_matches_formula(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        phase = stage.phases[0]
        phase.set_pmos(True)
        run_stage(stage, 100 * NS)
        # di/dt ~= (V_in - V_out)/L = (5-3.3)/1uH = 1.7 A/us -> 0.17 A in 100ns
        assert phase.current == pytest.approx(0.17, rel=0.1)

    def test_nmos_on_current_falls(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        phase = stage.phases[0]
        phase.current = 0.2
        phase.set_nmos(True)
        run_stage(stage, 50 * NS)
        # di/dt ~= -3.3/1uH = -3.3 A/us -> fell ~0.165 A in 50 ns
        assert phase.current == pytest.approx(0.2 - 0.165, rel=0.15)

    def test_both_off_positive_current_freewheels_down(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        phase = stage.phases[0]
        phase.current = 0.1
        run_stage(stage, 10 * NS)
        assert phase.current < 0.1

    def test_discontinuous_clamp_to_zero(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        phase = stage.phases[0]
        phase.current = 0.01
        run_stage(stage, 500 * NS)
        assert phase.current == 0.0

    def test_current_stays_zero_when_open(self, stage_factory, run_stage):
        stage = stage_factory(v_out0=3.3)
        run_stage(stage, 100 * NS)
        assert stage.phases[0].current == 0.0

    def test_negative_current_returns_to_zero_via_pmos_diode(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        phase = stage.phases[0]
        phase.current = -0.05
        run_stage(stage, 500 * NS)
        assert phase.current == 0.0

    def test_nmos_conducts_negative_current(self, stage_factory, run_stage):
        # synchronous rectifier: in OV mode the NMOS pulls current negative
        stage = stage_factory(l_uh=1.0, v_out0=3.6)
        phase = stage.phases[0]
        phase.set_nmos(True)
        run_stage(stage, 200 * NS)
        assert phase.current < 0.0


class TestOutputDynamics:
    def test_cap_discharges_through_load(self, stage_factory, run_stage):
        stage = stage_factory(v_out0=3.3, c_out=0.47e-6, r_load=6.0)
        run_stage(stage, 1 * US)
        # RC = 2.82 us -> v = 3.3*exp(-1/2.82) = 2.31 V
        import math
        expected = 3.3 * math.exp(-1e-6 / (6.0 * 0.47e-6))
        assert stage.v_out == pytest.approx(expected, rel=0.01)

    def test_charging_raises_voltage(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=4.7, v_out0=3.0)
        stage.phases[0].set_pmos(True)
        run_stage(stage, 2 * US)
        assert stage.v_out > 3.0

    def test_load_step_changes_discharge_rate(self, stage_factory, run_stage):
        load = LoadProfile([(0.0, 6.0), (1 * US, 2.0)])
        coil = make_coil(4.7 * UH)
        stage = make_power_stage(1, coil, load=load, v_out0=3.3)
        run_stage(stage, 1 * US)
        v_mid = stage.v_out
        run_stage(stage, 1 * US, t0=1 * US)
        v_end = stage.v_out
        # Discharge during the heavy-load microsecond must be faster.
        assert (v_mid - v_end) > (3.3 - v_mid)


#: four phase values whose in-order float sum differs in the last bit
#: from the compensated ``sum()`` of Python 3.12 and later
UNEVEN = (0.103327, 0.077386, -0.023829, -0.072325)


def _reference_didt(phase, i, v_out, v_in):
    """Coil slope straight from the switch table and the coil's
    soft-saturation derating, with no shortcut."""
    dcr = phase.coil.dcr
    if phase.pmos_on:
        v_drive = v_in - i * (dcr + phase.r_pmos)
    elif phase.nmos_on:
        v_drive = -i * (dcr + phase.r_nmos)
    elif i > 0.0:
        v_drive = -phase.v_diode - i * dcr
    elif i < 0.0:
        v_drive = v_in + phase.v_diode - i * dcr
    else:
        return 0.0
    return (v_drive - v_out) / phase.coil.effective_inductance(i)


class TestDerivatives:
    def test_dvdt_adds_phase_currents_in_order(self, stage_factory):
        stage = stage_factory(n=4, v_out0=3.3)
        _, dvdt = stage._derivatives(0.0, list(UNEVEN), 3.3)
        a, b, c, d = UNEVEN
        assert dvdt == ((((a + b) + c) + d) - 3.3 / 6.0) / 0.47e-6

    def test_coil_losses_add_phases_in_order(self, stage_factory):
        stage = stage_factory(n=4)
        for phase, loss in zip(stage.phases, UNEVEN):
            phase.coil_loss_j = loss
        a, b, c, d = UNEVEN
        assert stage.coil_losses_j() == ((a + b) + c) + d

    @pytest.mark.parametrize("switch", ["pmos", "nmos", "open"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nominal_inductance_shortcut_is_exact(self, stage_factory,
                                                  switch, sign):
        """Up to ``i_sat`` the stage skips the derating call; at the
        boundary, one ulp past it and for NaN the slope must equal the
        derated formula value for value."""
        stage = stage_factory(n=3, l_uh=1.0, v_out0=3.3)
        i_sat = stage.phases[0].coil.i_sat
        currents = [sign * i_sat, sign * math.nextafter(i_sat, math.inf),
                    math.nan]
        for phase in stage.phases:
            phase.pmos_on = switch == "pmos"
            phase.nmos_on = switch == "nmos"
        didt, _ = stage._derivatives(0.0, currents, 3.3)
        for phase, i, got in zip(stage.phases, currents, didt):
            want = _reference_didt(phase, i, 3.3, stage.v_in)
            assert got == want or (math.isnan(got) and math.isnan(want)), i


class TestEnergyAccounting:
    def test_energy_in_accumulates_only_with_pmos_on(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        run_stage(stage, 100 * NS)
        assert stage.energy_in_j == 0.0
        stage.phases[0].set_pmos(True)
        run_stage(stage, 100 * NS, t0=100 * NS)
        assert stage.energy_in_j > 0.0

    def test_energy_out_accumulates(self, stage_factory, run_stage):
        stage = stage_factory(v_out0=3.3)
        run_stage(stage, 100 * NS)
        assert stage.energy_out_j > 0.0

    def test_coil_loss_accumulates_with_current(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=1.0, v_out0=3.3)
        stage.phases[0].set_pmos(True)
        run_stage(stage, 200 * NS)
        assert stage.coil_losses_j() > 0.0

    def test_efficiency_bounded(self, stage_factory, run_stage):
        stage = stage_factory(l_uh=4.7, v_out0=3.3)
        stage.phases[0].set_pmos(True)
        run_stage(stage, 1 * US)
        assert 0.0 < stage.efficiency() <= 1.5  # crude bound, open loop

    def test_efficiency_zero_before_any_input_energy(self, stage_factory):
        stage = stage_factory()
        assert stage.efficiency() == 0.0


class TestConstruction:
    def test_make_power_stage_phase_indices(self, stage_factory):
        stage = stage_factory(n=4)
        assert [p.index for p in stage.phases] == [0, 1, 2, 3]
        assert stage.n_phases == 4

    def test_zero_phases_rejected(self, stage_factory):
        with pytest.raises(ValueError):
            make_power_stage(0, make_coil(1 * UH))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MultiphasePowerStage([], v_in=5.0)
        phase = BuckPhase(0, make_coil(1 * UH))
        with pytest.raises(ValueError):
            MultiphasePowerStage([phase], v_in=-5.0)
        with pytest.raises(ValueError):
            MultiphasePowerStage([phase], c_out=0.0)
