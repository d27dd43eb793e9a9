"""Unit tests for comparators and the sensor bank."""

import pytest

from repro.analog import (
    ABOVE,
    BELOW,
    BuckReferences,
    Comparator,
    LoadProfile,
    SensorBank,
    make_coil,
    make_power_stage,
)
from repro.sim import NS, UH

# the shared seeded ``sim`` fixture comes from tests/conftest.py

class _Ramp:
    """Analog value controllable from the test."""

    def __init__(self, value=0.0):
        self.value = value

    def __call__(self):
        return self.value


class TestComparator:
    def test_above_comparator_trips(self, sim):
        x = _Ramp(0.0)
        comp = Comparator(sim, "oc", x, threshold=1.0, direction=ABOVE,
                          delay=1 * NS)
        comp.sample(0.0)
        assert not comp.output.value
        x.value = 1.5
        comp.sample(10 * NS)
        sim.run_until(20 * NS)
        assert comp.output.value

    def test_below_comparator_trips(self, sim):
        x = _Ramp(5.0)
        comp = Comparator(sim, "uv", x, threshold=3.3, direction=BELOW,
                          delay=1 * NS)
        comp.sample(0.0)
        x.value = 3.0
        comp.sample(10 * NS)
        sim.run_until(20 * NS)
        assert comp.output.value

    def test_release_with_hysteresis(self, sim):
        x = _Ramp(2.0)
        comp = Comparator(sim, "oc", x, threshold=1.0, direction=ABOVE,
                          delay=0.0, hysteresis=0.2)
        comp.sample(0.0)
        sim.run_until(1 * NS)
        assert comp.output.value
        # Inside the hysteresis band: stays high.
        x.value = 0.9
        comp.sample(2 * NS)
        sim.run_until(3 * NS)
        assert comp.output.value
        # Below threshold - hysteresis: releases.
        x.value = 0.7
        comp.sample(4 * NS)
        sim.run_until(5 * NS)
        assert not comp.output.value

    def test_crossing_interpolation_reduces_quantisation(self, sim):
        # value crosses threshold 1.0 at 75% of the 10 ns step (t=7.5 ns);
        # with a 5 ns comparator delay the edge must land at 12.5 ns, not
        # at sample-time + delay = 15 ns.
        x = _Ramp(0.4)
        comp = Comparator(sim, "c", x, threshold=1.0, direction=ABOVE,
                          delay=5 * NS)
        comp.sample(0.0)
        x.value = 1.2
        comp.sample(10 * NS)
        sim.run_until(20 * NS)
        edges = comp.output.edges()
        assert len(edges) == 1
        assert edges[0] == pytest.approx(12.5 * NS, abs=0.01 * NS)

    def test_edge_never_scheduled_before_sample_time(self, sim):
        # crossing + delay landing before "now" clamps to the sample time
        x = _Ramp(0.0)
        comp = Comparator(sim, "c", x, threshold=0.5, direction=ABOVE,
                          delay=0.0)
        comp.sample(0.0)
        x.value = 100.0  # crossed almost immediately after t=0
        comp.sample(10 * NS)
        sim.run_until(20 * NS)
        assert comp.output.edges()[0] == pytest.approx(10 * NS, abs=0.01 * NS)

    def test_propagation_delay_added_to_crossing(self, sim):
        x = _Ramp(0.0)
        comp = Comparator(sim, "c", x, threshold=1.0, direction=ABOVE,
                          delay=5 * NS)
        comp.sample(0.0)
        x.value = 2.0
        comp.sample(10 * NS)
        sim.run_until(30 * NS)
        edges = comp.output.edges()
        # crossing at 5 ns + 5 ns delay = 10 ns
        assert edges[0] == pytest.approx(10 * NS, abs=0.01 * NS)

    def test_threshold_change_reevaluated_next_sample(self, sim):
        x = _Ramp(0.5)
        comp = Comparator(sim, "oc", x, threshold=1.0, direction=ABOVE,
                          delay=0.0)
        comp.sample(0.0)
        comp.threshold = 0.2  # OV-mode style re-referencing
        comp.sample(1 * NS)
        sim.run_until(2 * NS)
        assert comp.output.value

    def test_noise_produces_chatter_near_threshold(self, sim):
        x = _Ramp(1.0)
        comp = Comparator(sim, "noisy", x, threshold=1.0, direction=ABOVE,
                          delay=0.0, noise=0.05)
        for k in range(200):
            comp.sample(k * NS)
        sim.run_until(300 * NS)
        # A noisy comparator sitting on its threshold must glitch repeatedly.
        assert len(comp.output.edges()) > 4

    def test_invalid_direction_rejected(self, sim):
        with pytest.raises(ValueError):
            Comparator(sim, "c", _Ramp(), 1.0, direction="sideways")

    def test_negative_hysteresis_rejected(self, sim):
        with pytest.raises(ValueError):
            Comparator(sim, "c", _Ramp(), 1.0, hysteresis=-0.1)


class TestBuckReferences:
    def test_defaults_are_consistent(self):
        refs = BuckReferences()
        assert refs.v_min < refs.v_ref < refs.v_max
        assert refs.i_neg < refs.i_0 < refs.i_max

    def test_hl_implies_uv_enforced(self):
        with pytest.raises(ValueError):
            BuckReferences(v_min=3.4, v_ref=3.3)

    def test_current_order_enforced(self):
        with pytest.raises(ValueError):
            BuckReferences(i_neg=0.1, i_0=0.0)

    def test_ov_above_ref_enforced(self):
        with pytest.raises(ValueError):
            BuckReferences(v_ref=3.3, v_max=3.2)


class TestSensorBank:
    def _bank(self, sim, n=2, v_out0=0.0):
        stage = make_power_stage(n, make_coil(4.7 * UH),
                                 load=LoadProfile.constant(6.0),
                                 v_out0=v_out0)
        return stage, SensorBank(sim, stage, delay=1 * NS)

    def test_startup_conditions(self, sim):
        # discharged output: HL and UV must assert, OV must not
        stage, bank = self._bank(sim, v_out0=0.0)
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert bank.hl.output.value
        assert bank.uv.output.value
        assert not bank.ov.output.value

    def test_regulated_conditions(self, sim):
        stage, bank = self._bank(sim, v_out0=3.4)
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert not bank.hl.output.value
        assert not bank.uv.output.value
        assert not bank.ov.output.value

    def test_overvoltage_condition(self, sim):
        stage, bank = self._bank(sim, v_out0=3.7)
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert bank.ov.output.value

    def test_hl_implies_uv(self, sim):
        """Whenever HL is active UV must be too (V_min < V_ref)."""
        for v in (0.0, 1.0, 2.9, 3.1, 3.4):
            stage, bank = self._bank(sim, v_out0=v)
            bank.sample_all(sim.now)
            sim.run(5 * NS)
            if bank.hl.output.value:
                assert bank.uv.output.value

    def test_per_phase_oc(self, sim):
        stage, bank = self._bank(sim, n=2, v_out0=3.3)
        stage.phases[0].current = 0.35  # above I_max=0.30
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert bank.oc[0].output.value
        assert not bank.oc[1].output.value

    def test_zc_high_at_zero_current(self, sim):
        stage, bank = self._bank(sim, v_out0=3.3)
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert bank.zc[0].output.value  # i=0 < I_0 threshold

    def test_ov_mode_swaps_references(self, sim):
        stage, bank = self._bank(sim, n=2, v_out0=3.3)
        refs = bank.refs
        bank.set_ov_mode(0, True)
        assert bank.oc[0].threshold == refs.i_0
        assert bank.zc[0].threshold == refs.i_neg
        # other phase untouched
        assert bank.oc[1].threshold == refs.i_max
        bank.set_ov_mode(0, False)
        assert bank.oc[0].threshold == refs.i_max
        assert bank.zc[0].threshold == refs.i_0

    def test_ov_mode_idempotent(self, sim):
        stage, bank = self._bank(sim)
        bank.set_ov_mode(0, True)
        bank.set_ov_mode(0, True)
        assert bank.ov_mode(0)

    def test_ov_mode_oc_trips_on_small_positive_current(self, sim):
        stage, bank = self._bank(sim, v_out0=3.3)
        bank.set_ov_mode(0, True)
        stage.phases[0].current = 0.02  # > I_0 but << I_max
        bank.sample_all(0.0)
        sim.run_until(5 * NS)
        assert bank.oc[0].output.value

    def test_all_comparators_enumeration(self, sim):
        stage, bank = self._bank(sim, n=3)
        comps = bank.all_comparators()
        assert len(comps) == 3 + 2 * 3  # hl, uv, ov + per-phase oc, zc

    @staticmethod
    def _ramp(stage, bank, k):
        """Triangle ramp over 400 samples that crosses every threshold
        both ways; phase 1 runs in OV mode for the middle half."""
        up = k % 200 / 200.0 if k < 200 else 1.0 - k % 200 / 200.0
        stage.v_out = 2.8 + up                # 2.8 V .. 3.8 V
        stage.phases[0].current = -0.1 + 0.5 * up
        stage.phases[1].current = 0.4 - 0.5 * up
        bank.set_ov_mode(1, 100 <= k < 300)

    @classmethod
    def _ramp_ov_swaps(cls, stage, bank, k):
        """The ramp, with phase 0 also swapping references every 30
        samples, so swaps land while its comparators are tripped."""
        cls._ramp(stage, bank, k)
        bank.set_ov_mode(0, k // 30 % 2 == 1)

    @staticmethod
    def _rearm(stage, bank, k):
        """Small triangles (1.5 hysteresis bands each way) around one
        threshold at a time: every comparator trips, holds inside its
        band, releases and re-arms, again and again."""
        r = bank.refs
        tri = abs(k % 40 - 20) / 10.0 - 1.0   # -1 .. 1, period 40
        stage.v_out = ((r.v_min, r.v_ref, r.v_max)[k // 134]
                       + 1.5 * r.v_hyst * tri)
        levels = (r.i_max, r.i_0)
        stage.phases[0].current = (levels[k // 200]
                                   + 1.5 * r.i_hyst * tri)
        stage.phases[1].current = (levels[1 - k // 200]
                                   + 1.5 * r.i_hyst * tri)

    @staticmethod
    def _touch(stage, bank, k):
        """Values that land exactly on a threshold, or on the far edge
        of a tripped comparator's hysteresis band: a tie with the
        threshold is not a trip (``>`` / ``<``), a tie with the band edge
        is not a release (``>=`` / ``<=``)."""
        r = bank.refs
        volts = (3.2, r.v_ref + r.v_hyst, 3.6, r.v_max - r.v_hyst, 3.45,
                 r.v_max, r.v_min, r.v_ref)
        amps = (0.35, r.i_max - r.i_hyst, 0.1, r.i_max, -0.1,
                r.i_0 + r.i_hyst, 0.1, r.i_0)
        stage.v_out = volts[k % 8]
        stage.phases[0].current = amps[k % 8]
        stage.phases[1].current = amps[(k + 4) % 8]
        bank.set_ov_mode(1, k // 50 % 2 == 1)

    @pytest.mark.parametrize("drive, noise, rises", [
        ("_ramp_ov_swaps", 0.0, 1),
        ("_rearm", 0.0, 3),
        ("_touch", 0.0, 0),
        ("_ramp", 0.003, 1),
    ], ids=["ov_mode_swaps", "hysteresis_rearm", "threshold_ties", "noisy"])
    def test_sample_all_matches_one_at_a_time_sampling(self, make_sim, drive,
                                                       noise, rises):
        """``sample_all`` decides every comparator inline and keeps the
        previous sample on the bank; sampling the same comparators one
        by one through ``Comparator.sample`` must give the same output
        traces, edge times, states and noise draws."""
        runs = []
        for one_at_a_time in (False, True):
            sim = make_sim(seed=5)
            stage = make_power_stage(2, make_coil(4.7 * UH),
                                     load=LoadProfile.constant(6.0))
            bank = SensorBank(sim, stage, delay=1 * NS, noise=noise)
            for k in range(400):
                t = k * NS
                getattr(self, drive)(stage, bank, k)
                sim.run_until(t)
                if one_at_a_time:
                    for comp in bank.all_comparators():
                        comp.sample(t)
                else:
                    bank.sample_all(t)
            sim.run_until(410 * NS)
            comps = bank.all_comparators()
            for comp in comps if rises else ():
                assert len(comp.output.edges("rise")) >= rises, comp.name
                assert comp.output.edges("fall"), comp.name
            runs.append(([(comp.output.times, comp.output.values)
                          for comp in comps],
                         [comp.output.edges() for comp in comps],
                         [comp._state for comp in comps],
                         sim.rng.getstate()))
        assert runs[0] == runs[1]
