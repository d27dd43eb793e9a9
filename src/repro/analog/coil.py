"""Power inductor (coil) models.

The paper sweeps Coilcraft RF inductors from 1 uH to 10 uH (Sec. V, Fig. 7)
and exploits the fact that physically larger inductance comes with a larger
winding resistance (DCR), so that *smaller* coils both shrink the gadget and
reduce I^2*R losses — provided the controller reacts fast enough to keep the
peak current in check.

:class:`Coil` is a simple L + DCR series model.  :data:`COIL_LIBRARY` holds a
catalogue in the spirit of the Coilcraft RF range referenced by the paper
([18]): monotone DCR(L) with a small saturation-current derating.  The values
annotated on Fig. 7a (1.8, 2.25, 3.1, 4.7, 5.7, 6.8, 8.2 uH) all appear as
catalogue entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.units import UH


@dataclass(frozen=True)
class Coil:
    """Series L + DCR inductor model.

    Attributes
    ----------
    name:
        Catalogue part name.
    inductance:
        Inductance in henry.
    dcr:
        DC winding resistance in ohm; the loss model is ``I_rms^2 * dcr``.
    i_sat:
        Saturation current in ampere.  The power-stage model derates the
        incremental inductance above this current (soft saturation), which
        makes peak-current violations *worse* for slow controllers — the
        effect the paper's coil-size trade-off is about.
    """

    name: str
    inductance: float
    dcr: float
    i_sat: float = 1.0

    def __post_init__(self) -> None:
        if self.inductance <= 0:
            raise ValueError(f"inductance must be positive ({self.name})")
        if self.dcr < 0:
            raise ValueError(f"DCR cannot be negative ({self.name})")
        if self.i_sat <= 0:
            raise ValueError(f"saturation current must be positive ({self.name})")

    def effective_inductance(self, current: float) -> float:
        """Incremental inductance at ``current`` (soft-saturation derating).

        Below ``i_sat`` the coil is ideal.  Above, inductance rolls off
        smoothly towards 40% of nominal, a typical ferrite soft-saturation
        curve shape.
        """
        overdrive = abs(current) / self.i_sat
        if overdrive <= 1.0:
            return self.inductance
        # Roll off asymptotically to 40% of nominal.
        factor = 0.4 + 0.6 / overdrive
        return self.inductance * factor

    def stored_energy(self, current: float) -> float:
        """Magnetic energy at ``current``: the flux-linkage integral
        ``int L(i) i di`` of the soft-saturation model, which is below the
        naive ``L i^2 / 2`` once the coil saturates."""
        i = abs(current)
        l_nom, i_sat = self.inductance, self.i_sat
        if i <= i_sat:
            return 0.5 * l_nom * i * i
        # beyond saturation: L(x) = l_nom * (0.4 + 0.6 * i_sat / x)
        linear = 0.5 * l_nom * i_sat * i_sat
        tail = l_nom * (0.2 * (i * i - i_sat * i_sat)
                        + 0.6 * i_sat * (i - i_sat))
        return linear + tail


def dcr_model(inductance: float) -> float:
    """Coilcraft-style DCR(L) fit used for non-catalogue inductances.

    Fitted so DCR grows sub-linearly with L (longer winding, same wire
    family): ``DCR = 0.095 * (L/1uH)^0.8`` ohm.  This preserves the paper's
    Fig. 7c conclusion (losses grow with coil size).
    """
    if inductance <= 0:
        raise ValueError("inductance must be positive")
    return 0.095 * (inductance / UH) ** 0.8


def i_sat_model(inductance: float) -> float:
    """Saturation-current fit: larger coils in the same family saturate
    slightly later; clamped to a realistic RF-inductor range."""
    if inductance <= 0:
        raise ValueError("inductance must be positive")
    return min(1.6, 0.9 + 0.07 * (inductance / UH))


def make_coil(inductance: float, name: str = "") -> Coil:
    """Build a :class:`Coil` for an arbitrary inductance using the fits."""
    label = name or f"L{inductance / UH:.3g}uH"
    return Coil(
        name=label,
        inductance=inductance,
        dcr=dcr_model(inductance),
        i_sat=i_sat_model(inductance),
    )


def _catalogue() -> Dict[str, Coil]:
    values_uh = [1.0, 1.2, 1.5, 1.8, 2.25, 2.7, 3.1, 3.9, 4.7,
                 5.7, 6.8, 8.2, 10.0]
    coils = {}
    for value in values_uh:
        coil = make_coil(value * UH, name=f"RF-{value:.4g}uH")
        coils[coil.name] = coil
    return coils


#: Catalogue of Coilcraft-style RF inductors (1-10 uH range of Fig. 7).
COIL_LIBRARY: Dict[str, Coil] = _catalogue()


def library_values() -> List[float]:
    """Catalogue inductances in henry, ascending."""
    return sorted(c.inductance for c in COIL_LIBRARY.values())


def nearest_coil(inductance: float) -> Coil:
    """Catalogue coil closest (ratio-wise) to the requested inductance."""
    if inductance <= 0:
        raise ValueError("inductance must be positive")
    best = min(
        COIL_LIBRARY.values(),
        key=lambda c: abs(c.inductance - inductance) / inductance,
    )
    return best


def smallest_coil_for_peak(peak_by_inductance: Dict[float, float],
                           limit: float) -> float:
    """Given measured ``{inductance: peak_current}``, return the smallest
    inductance whose peak stays at or below ``limit``.

    This is the paper's coil-size trade-off query (Sec. V: async holds
    300 mA with a 1.8 uH coil where 333 MHz sync needs 6.8 uH).  Raises
    ``ValueError`` if no inductance satisfies the limit.
    """
    feasible = [l for l, peak in peak_by_inductance.items() if peak <= limit]
    if not feasible:
        raise ValueError(f"no coil meets the {limit} A peak-current limit")
    return min(feasible)
