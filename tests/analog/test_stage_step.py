"""``MultiphasePowerStage.step`` against an RK2 step built from
``_derivatives``, bit for bit.

``step`` evaluates both midpoint stages, the body-diode clamp, the energy
bookkeeping and the error estimate in one pass over the phases.  The
reference below is the same midpoint step spelled out on the stage's
documented slope function: two ``_derivatives`` calls, then the commit.
Each case runs the two on twin stages and compares every state float and
the returned ``(err_i, err_v)`` by their bytes, so ``-0.0`` against
``0.0`` and NaN against a number are differences.
"""

import random
import struct

import pytest

from repro.analog import BuckPhase, LoadProfile, MultiphasePowerStage, make_coil
from repro.sim import NS, UH


def reference_step(stage, t, dt):
    """One explicit midpoint step of ``stage`` written on ``_derivatives``."""
    currents0 = [p.current for p in stage.phases]
    v0 = stage.v_out
    half = 0.5 * dt
    k1_i, k1_v = stage._derivatives(t, currents0, v0)
    mid_i = [i + half * d for i, d in zip(currents0, k1_i)]
    k2_i, k2_v = stage._derivatives(t + half, mid_i, v0 + half * k1_v)
    new_v = v0 + dt * k2_v
    e_in = 0.0
    for phase, i0, d in zip(stage.phases, currents0, k2_i):
        i1 = i0 + dt * d
        if not phase.pmos_on and not phase.nmos_on:
            if i0 * i1 <= 0.0 or abs(i1) > abs(i0):
                i1 = 0.0
        phase.current = i1
        phase.coil_loss_j += 0.5 * (i0 * i0 + i1 * i1) * phase.coil.dcr * dt
        if phase.pmos_on:
            e_in += stage.v_in * 0.5 * (i0 + i1) * dt
    stage.energy_in_j += e_in
    r_load = stage.load.resistance(t)
    stage.energy_out_j += 0.5 * (v0 * v0 + new_v * new_v) / r_load * dt
    stage.v_out = new_v
    err_i = max([abs(b - a) for a, b in zip(k1_i, k2_i)]) * dt
    return err_i, abs(k2_v - k1_v) * dt


#: (inductance uH, R_pmos, R_nmos, V_diode) per phase: no two alike
MIXED_PHASES = ((1.0, 0.05, 0.04, 0.7), (2.25, 0.08, 0.03, 0.6),
                (4.7, 0.03, 0.06, 0.75), (10.0, 0.11, 0.02, 0.65))


def twin_stages(phases=MIXED_PHASES, load=None, v_out0=3.0):
    """Two identical stages with one coil and on-resistance per phase."""
    def build():
        return MultiphasePowerStage(
            [BuckPhase(k, make_coil(l_uh * UH), r_pmos=rp, r_nmos=rn,
                       v_diode=vd)
             for k, (l_uh, rp, rn, vd) in enumerate(phases)],
            load=load or LoadProfile.constant(6.0), v_out0=v_out0)
    return build(), build()


def set_state(stage, currents, switches, v_out=None):
    """Currents and conduction states ('p', 'n' or '-') per phase."""
    for phase, i, sw in zip(stage.phases, currents, switches):
        phase.current = i
        phase.pmos_on = sw == "p"
        phase.nmos_on = sw == "n"
    if v_out is not None:
        stage.v_out = v_out


def bits(x):
    return struct.pack("<d", x)


def state_bits(stage, errs):
    floats = [stage.v_out, stage.energy_in_j, stage.energy_out_j, *errs]
    for phase in stage.phases:
        floats += [phase.current, phase.coil_loss_j]
    return [bits(x) for x in floats]


def assert_same_step(fast, ref, t, dt):
    got = fast.step(t, dt)
    want = reference_step(ref, t, dt)
    assert state_bits(fast, got) == state_bits(ref, want)
    return got


@pytest.mark.parametrize("switches", ["pn--", "--pn", "n-p-", "----"])
def test_heterogeneous_coils(switches):
    fast, ref = twin_stages()
    for stage in (fast, ref):
        set_state(stage, [0.12, -0.03, 0.07, 0.2], switches)
    for k in range(200):
        assert_same_step(fast, ref, k * 0.5 * NS, 0.5 * NS)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("switch", ["p", "n", "-"])
def test_currents_above_saturation(sign, switch):
    """Above ``i_sat`` the slope divides by the derated inductance."""
    fast, ref = twin_stages()
    over = [sign * 1.7 * p.coil.i_sat for p in fast.phases]
    for stage in (fast, ref):
        set_state(stage, over, switch * 4)
    assert all(abs(p.current) > p.coil.i_sat for p in fast.phases)
    assert_same_step(fast, ref, 0.0, 1 * NS)


@pytest.mark.parametrize("i0, v_out", [
    (1e-5, 3.3),     # NMOS-diode freewheel decays through zero: sign flip
    (-1e-5, 3.3),    # PMOS-diode return decays through zero: sign flip
    (0.05, -2.0),    # output below the diode drop: the current would grow
    (-0.05, 6.5),    # output above rail + diode drop: the return would grow
])
def test_body_diode_clamp(i0, v_out):
    fast, ref = twin_stages()
    for stage in (fast, ref):
        set_state(stage, [i0] * 4, "----", v_out=v_out)
    assert_same_step(fast, ref, 0.0, 1 * NS)
    # the case does reach the clamp: every coil opened at exactly zero
    assert [bits(p.current) for p in fast.phases] == [bits(0.0)] * 4


@pytest.mark.parametrize("switches", ["----", "pn--", "-pn-"])
def test_signed_zero_currents(switches):
    fast, ref = twin_stages()
    for stage in (fast, ref):
        set_state(stage, [0.0, -0.0, -0.0, 0.0], switches, v_out=3.3)
    for k in range(3):
        assert_same_step(fast, ref, k * NS, 1 * NS)


def test_midpoint_load_straddles_a_breakpoint():
    """``t`` is before the load step and ``t + dt/2`` after it: the
    first stage must see the light load and the second the heavy one."""
    dt = 1 * NS
    t_step = 40 * NS
    load = LoadProfile([(0.0, 6.0), (t_step, 0.5)])
    fast, ref = twin_stages(load=load, v_out0=3.3)
    t = t_step - 0.25 * dt
    assert load.resistance(t) != load.resistance(t + 0.5 * dt)
    for stage in (fast, ref):
        set_state(stage, [0.1, 0.2, -0.05, 0.0], "pn--")
    assert_same_step(fast, ref, t, dt)


def test_random_walk():
    """Random conduction states, currents (some past saturation, some
    signed zeros) and steps over a three-step load, for 3,000 steps."""
    rng = random.Random(11)
    load = LoadProfile([(0.0, 6.0), (0.7 * 1000 * NS, 2.0),
                        (1.3 * 1000 * NS, 4.0)])
    fast, ref = twin_stages(load=load)
    t = 0.0
    for k in range(3000):
        if k % 17 == 0:
            switches = "".join(rng.choice("pn--") for _ in range(4))
            for stage in (fast, ref):
                set_state(stage, [p.current for p in stage.phases], switches)
        if k % 101 == 0:
            currents = [rng.choice([0.0, -0.0, 0.02, -0.04, 2.5, -2.5])
                        for _ in range(4)]
            for stage in (fast, ref):
                set_state(stage, currents, [
                    "p" if p.pmos_on else "n" if p.nmos_on else "-"
                    for p in stage.phases])
        dt = rng.choice([0.25, 0.5, 1.0, 3.0]) * NS
        assert_same_step(fast, ref, t, dt)
        t += dt
