"""Unit tests for the coil library."""

import pytest

from repro.analog import (
    COIL_LIBRARY,
    Coil,
    dcr_model,
    i_sat_model,
    library_values,
    make_coil,
    nearest_coil,
    smallest_coil_for_peak,
)
from repro.sim import UH


class TestCoil:
    def test_basic_attributes(self):
        coil = Coil("test", 4.7 * UH, 0.3, i_sat=1.0)
        assert coil.inductance == pytest.approx(4.7 * UH)
        assert coil.dcr == 0.3

    def test_invalid_inductance(self):
        with pytest.raises(ValueError):
            Coil("bad", -1 * UH, 0.1)
        with pytest.raises(ValueError):
            Coil("bad", 0.0, 0.1)

    def test_invalid_dcr(self):
        with pytest.raises(ValueError):
            Coil("bad", 1 * UH, -0.1)

    def test_invalid_i_sat(self):
        with pytest.raises(ValueError):
            Coil("bad", 1 * UH, 0.1, i_sat=0.0)

    def test_effective_inductance_below_saturation(self):
        coil = Coil("test", 2 * UH, 0.1, i_sat=1.0)
        assert coil.effective_inductance(0.5) == pytest.approx(2 * UH)
        assert coil.effective_inductance(-0.99) == pytest.approx(2 * UH)

    def test_effective_inductance_derates_above_saturation(self):
        coil = Coil("test", 2 * UH, 0.1, i_sat=1.0)
        l_over = coil.effective_inductance(2.0)
        assert l_over < 2 * UH
        assert l_over > 0.4 * 2 * UH  # asymptote is 40% of nominal

    def test_effective_inductance_monotone_decreasing(self):
        coil = Coil("test", 2 * UH, 0.1, i_sat=1.0)
        values = [coil.effective_inductance(i) for i in (1.0, 1.5, 2.0, 5.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_stored_energy_linear_region(self):
        coil = Coil("test", 2 * UH, 0.1, i_sat=1.0)
        assert coil.stored_energy(0.5) == pytest.approx(0.5 * 2e-6 * 0.25)
        assert coil.stored_energy(-0.5) == coil.stored_energy(0.5)

    def test_stored_energy_saturated_below_naive(self):
        coil = Coil("test", 2 * UH, 0.1, i_sat=1.0)
        i = 2.0
        naive = 0.5 * coil.inductance * i * i
        assert coil.stored_energy(i) < naive
        # continuous at the saturation knee
        eps = 1e-6
        assert coil.stored_energy(1.0 + eps) == pytest.approx(
            coil.stored_energy(1.0 - eps), rel=1e-3)

    def test_stored_energy_monotone(self):
        coil = Coil("test", 1 * UH, 0.1, i_sat=0.8)
        values = [coil.stored_energy(i / 10) for i in range(0, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestModels:
    def test_dcr_monotone_in_inductance(self):
        values = [dcr_model(l * UH) for l in (1, 2, 5, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_dcr_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dcr_model(0.0)

    def test_i_sat_clamped(self):
        assert i_sat_model(100 * UH) == pytest.approx(1.6)

    def test_i_sat_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            i_sat_model(-1.0)

    def test_make_coil_default_name(self):
        coil = make_coil(4.7 * UH)
        assert "4.7" in coil.name
        assert coil.dcr == pytest.approx(dcr_model(4.7 * UH))


class TestLibrary:
    def test_covers_paper_range(self):
        values = library_values()
        assert min(values) == pytest.approx(1.0 * UH)
        assert max(values) == pytest.approx(10.0 * UH)

    def test_contains_fig7a_annotated_values(self):
        # 1.8, 2.25, 3.1, 4.7, 5.7, 6.8, 8.2 uH are called out on Fig. 7a
        values = {round(v / UH, 2) for v in library_values()}
        for annotated in (1.8, 2.25, 3.1, 4.7, 5.7, 6.8, 8.2):
            assert annotated in values

    def test_dcr_monotone_across_library(self):
        coils = sorted(COIL_LIBRARY.values(), key=lambda c: c.inductance)
        dcrs = [c.dcr for c in coils]
        assert all(a < b for a, b in zip(dcrs, dcrs[1:]))

    def test_nearest_coil_exact(self):
        assert nearest_coil(4.7 * UH).inductance == pytest.approx(4.7 * UH)

    def test_nearest_coil_between_values(self):
        coil = nearest_coil(1.9 * UH)
        assert coil.inductance == pytest.approx(1.8 * UH)

    def test_nearest_coil_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nearest_coil(0.0)


class TestCoilTradeoff:
    def test_smallest_coil_for_peak(self):
        peaks = {1e-6: 0.5, 2e-6: 0.35, 5e-6: 0.28, 10e-6: 0.22}
        assert smallest_coil_for_peak(peaks, 0.30) == pytest.approx(5e-6)

    def test_smallest_coil_unsatisfiable(self):
        with pytest.raises(ValueError):
            smallest_coil_for_peak({1e-6: 0.9}, 0.3)

    def test_limit_boundary_inclusive(self):
        peaks = {1e-6: 0.300, 2e-6: 0.2}
        assert smallest_coil_for_peak(peaks, 0.300) == pytest.approx(1e-6)
