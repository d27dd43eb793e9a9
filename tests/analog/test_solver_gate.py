"""Integration tests: gate driver + solver + sensors closing the loop.

Setup comes from the shared ``analog_rig`` fixture in ``tests/conftest.py``.
"""

import pytest

from repro.analog import AnalogSolver, ShortCircuitError, make_coil, make_power_stage
from repro.sim import NS, UH, US


class TestGateDriver:
    def test_gate_delay_and_ack(self, analog_rig):
        rig = analog_rig()
        rig.gates.gp[0].set(True, 5 * NS)
        rig.sim.run_until(5.5 * NS)
        assert not rig.stage.phases[0].pmos_on
        rig.sim.run_until(7 * NS)
        assert rig.stage.phases[0].pmos_on
        assert rig.gates.gp_ack[0].value

    def test_ack_follows_turn_off(self, analog_rig):
        rig = analog_rig()
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[0].set(False, 10 * NS)
        rig.sim.run_until(12 * NS)
        assert not rig.stage.phases[0].pmos_on
        assert not rig.gates.gp_ack[0].value

    def test_overlapping_commands_raise_short_circuit(self, analog_rig):
        rig = analog_rig()
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gn[0].set(True, 1.5 * NS)
        with pytest.raises(ShortCircuitError):
            rig.sim.run_until(5 * NS)

    def test_break_before_make_through_acks_is_safe(self, analog_rig):
        rig = analog_rig()
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[0].set(False, 10 * NS)
        rig.gates.gn[0].set(True, 12 * NS)  # after gp_ack falls at 11 ns
        rig.sim.run_until(20 * NS)
        assert rig.stage.phases[0].nmos_on
        assert rig.gates.gn_ack[0].value

    def test_ack_lists_are_bound_once(self, analog_rig):
        """The controllers index the ack lists on every commutation, so
        the bank builds them once instead of on each read."""
        bank = analog_rig(n=3).gates
        assert bank.gp_ack is bank.gp_ack and bank.gn_ack is bank.gn_ack
        for k, driver in enumerate(bank.drivers):
            assert bank.gp_ack[k] is driver.gp_ack
            assert bank.gn_ack[k] is driver.gn_ack


class TestClosedLoopOpenController:
    """Drive the gates by hand and watch the analog react through sensors."""

    def test_charging_cycle_raises_voltage_vs_baseline(self, analog_rig,
                                                       make_sim):
        rig = analog_rig(v_out0=3.0, l_uh=1.0)
        rig.sim.run_until(5 * NS)
        assert rig.sensors.uv.output.value
        # manual charging: PMOS on for 300 ns
        rig.gates.gp[0].set(True)
        rig.sim.run(300 * NS)
        rig.gates.gp[0].set(False)
        rig.sim.run(200 * NS)
        v_charged = rig.stage.v_out

        # baseline: identical setup, no charging at all
        baseline = analog_rig(v_out0=3.0, l_uh=1.0, on=make_sim())
        baseline.sim.run(505 * NS)
        assert v_charged > baseline.stage.v_out

    def test_oc_fires_during_charge(self, analog_rig):
        rig = analog_rig(v_out0=3.3, l_uh=1.0)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.sim.run_until(2 * US)
        # slew 1.7 A/us crosses I_max=0.30 A at ~178 ns; oc must have fired
        assert rig.sensors.oc[0].output.value
        rises = rig.sensors.oc[0].output.edges("rise")
        assert len(rises) >= 1
        assert rises[0] == pytest.approx(180 * NS, abs=20 * NS)

    def test_zc_detects_current_decay(self, analog_rig):
        rig = analog_rig(v_out0=3.3, l_uh=1.0)
        # charge then freewheel: current decays back to zero -> zc rises
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[0].set(False, 100 * NS)
        rig.sim.run_until(2 * US)
        assert rig.stage.phases[0].current == 0.0
        assert rig.sensors.zc[0].output.value

    def test_probes_record_waveforms(self, analog_rig):
        rig = analog_rig(v_out0=3.3)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.sim.run_until(100 * NS)
        assert len(rig.solver.v_probe.times) > 50
        assert rig.solver.i_probes[0].maximum > 0.0

    def test_peak_coil_current_measurement(self, analog_rig):
        rig = analog_rig(v_out0=3.3, l_uh=1.0)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[0].set(False, 101 * NS)
        rig.sim.run_until(1 * US)
        peak = rig.solver.peak_coil_current()
        # 1.7 A/us for ~100 ns -> ~0.17 A
        assert peak == pytest.approx(0.17, rel=0.15)

    def test_reset_measurements(self, analog_rig):
        rig = analog_rig(v_out0=3.3, l_uh=1.0)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[0].set(False, 101 * NS)
        rig.sim.run_until(500 * NS)
        rig.solver.reset_measurements()
        rig.sim.run_until(1 * US)
        # after reset, with the coil idle, peak is ~0
        assert rig.solver.peak_coil_current() < 0.02

    def test_untraced_mode_keeps_stats(self, analog_rig):
        rig = analog_rig(v_out0=3.3, l_uh=1.0, trace=False)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.sim.run_until(100 * NS)
        assert rig.solver.i_probes[0].maximum > 0.0
        assert len(rig.solver.i_probes[0].times) == 0

    def test_solver_rejects_double_start(self, analog_rig):
        rig = analog_rig()
        with pytest.raises(RuntimeError):
            rig.solver.start()

    def test_solver_rejects_bad_dt(self, sim):
        stage = make_power_stage(1, make_coil(1 * UH))
        with pytest.raises(ValueError):
            AnalogSolver(sim, stage, dt=0.0)


class TestMultiphaseInteraction:
    def test_two_phases_share_load(self, analog_rig):
        rig = analog_rig(n=2, v_out0=3.0, l_uh=2.25)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.gates.gp[1].set(True, 1 * NS)
        rig.sim.run_until(200 * NS)
        assert rig.stage.phases[0].current > 0
        assert rig.stage.phases[1].current > 0

    def test_per_phase_oc_independent(self, analog_rig):
        rig = analog_rig(n=2, v_out0=3.3, l_uh=1.0)
        rig.gates.gp[0].set(True, 1 * NS)
        rig.sim.run_until(300 * NS)
        assert rig.sensors.oc[0].output.value
        assert not rig.sensors.oc[1].output.value
