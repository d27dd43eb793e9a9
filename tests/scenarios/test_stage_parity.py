"""Step-level parity: the vector power stage against its scalar twin.

Every lane of a :class:`VectorizedPowerStage` must advance exactly like
a :class:`MultiphasePowerStage` built from the same config and driven
through the same switch states.  Seeded random lane states cover every
switch state, signed and tiny currents, body-diode decay and the
zero-crossing clamp, soft saturation, stepped loads, lock-step ``dt``
and per-lane adaptive ``dt`` vectors with zero-width lanes, for phase
counts on both sides of numpy's pairwise-summation block (8).

Currents, ``v_out``, ``energy_in_j``, ``energy_out_j``, ``coil_loss_j``
and the RK2(1) error estimates must be equal, value for value.  Signed
zeros compare equal: the vector clamp multiplies by a 0/1 mask where the
scalar assigns ``0.0``.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.analog.buck import make_power_stage
from repro.analog.coil import make_coil
from repro.analog.load import LoadProfile
from repro.analog.sensors import BuckReferences, SensorBank
from repro.analog.solver import AnalogSolver
from repro.analog.stepping import SteppingPolicy
from repro.scenarios.vector_solver import (LaneSensors, VectorComparatorBank,
                                           VectorizedSolver)
from repro.scenarios.vector_stage import VectorizedPowerStage
from repro.sim import NS, UH, US, Simulator
from repro.system import SystemConfig

N_LANES = 6
ROUNDS = 40          #: fresh random states per case
STEPS = 6            #: consecutive steps from each state

#: four phase currents whose in-order float sum differs in the last bit
#: from the compensated ``sum()`` of Python 3.12 and later
UNEVEN_CURRENTS = (0.103327, 0.077386, -0.023829, -0.072325)

#: signed zeros, subnormals and tiny currents around the clamp and the
#: diode sign tests
SPECIAL_CURRENTS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12,
                    -1e-12)


def _configs(rng, p):
    configs = []
    for lane in range(N_LANES):
        if lane % 2:
            t1 = rng.uniform(0.2, 0.6) * US
            load = LoadProfile([(0.0, rng.uniform(2.0, 15.0)),
                                (t1, rng.uniform(2.0, 15.0)),
                                (t1 + rng.uniform(0.1, 0.5) * US,
                                 rng.uniform(2.0, 15.0))])
        else:
            load = LoadProfile.constant(rng.uniform(2.0, 15.0))
        configs.append(SystemConfig(
            n_phases=p, inductance=rng.uniform(1.0, 10.0) * UH,
            v_in=rng.uniform(3.0, 6.0), c_out=rng.uniform(0.2, 1.0) * 1e-6,
            v_out0=rng.uniform(0.0, 4.0), load=load))
    return configs


def _twins(configs):
    return [make_power_stage(c.n_phases, make_coil(c.inductance),
                             v_in=c.v_in, c_out=c.c_out, load=c.load,
                             v_out0=c.v_out0) for c in configs]


def _random_current(rng, i_sat):
    r = rng.random()
    if r < 0.25:
        return rng.choice(SPECIAL_CURRENTS)
    if r < 0.4:
        # beyond the coil's saturation current: soft-saturation derating
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.5) * i_sat
    return rng.uniform(-0.5, 0.5) * i_sat


def _randomize(rng, vec, twins, rebuild):
    """Draw a fresh state for every lane and apply it to both stages.

    Switch states go through the commutation path (``LanePhase``) or,
    when ``rebuild``, straight into the arrays followed by the full
    coefficient rebuild.
    """
    for lane, twin in enumerate(twins):
        v = rng.choice((0.0, rng.uniform(0.0, 4.0)))
        vec.v_out[lane] = v
        twin.v_out = v
        for k, phase in enumerate(twin.phases):
            i = _random_current(rng, phase.coil.i_sat)
            vec.current[lane, k] = i
            phase.current = i
            sw = rng.choice("PNoo")         # open phases: body diode
            pmos, nmos = sw == "P", sw == "N"
            phase.pmos_on, phase.nmos_on = pmos, nmos
            if rebuild:
                vec.pmos_on[lane, k] = pmos
                vec.nmos_on[lane, k] = nmos
            else:
                view = vec.lanes[lane].phases[k]
                view.set_pmos(False)
                view.set_nmos(False)
                view.set_pmos(pmos)
                view.set_nmos(nmos)
    if rebuild:
        vec._refresh_switch()


def _assert_lane(vec, twin, lane, where, track_energy):
    cur = [p.current for p in twin.phases]
    assert vec.current[lane].tolist() == cur, f"{where}: currents"
    assert vec.v_out.item(lane) == twin.v_out, f"{where}: v_out"
    if not track_energy:
        return
    assert vec.energy_out_j.item(lane) == twin.energy_out_j, \
        f"{where}: energy_out_j"
    assert vec.coil_loss_j[lane].tolist() == \
        [p.coil_loss_j for p in twin.phases], f"{where}: coil_loss_j"
    assert vec.energy_in_j.item(lane) == twin.energy_in_j, \
        f"{where}: energy_in_j"


def _run(p, adaptive, track_energy, seed):
    rng = random.Random(seed)
    configs = _configs(rng, p)
    vec = VectorizedPowerStage(configs, track_energy=track_energy)
    twins = _twins(configs)
    err_i, err_v = np.empty(N_LANES), np.empty(N_LANES)
    for rnd in range(ROUNDS):
        _randomize(rng, vec, twins, rebuild=rnd % 3 == 0)
        # start times around the stepped loads' breakpoints
        if adaptive:
            t = np.array([rng.uniform(0.0, 1.2) * US for _ in range(N_LANES)])
        else:
            t = rng.uniform(0.0, 1.2) * US
        dt = rng.choice((1.0, 2.0, 10.0, 50.0)) * NS
        for step in range(STEPS):
            where = f"P={p} adaptive={adaptive} round {rnd} step {step}"
            if adaptive:
                h = np.array([0.0 if rng.random() < 0.2
                              else rng.uniform(0.1, 50.0) * NS
                              for _ in range(N_LANES)])
                i_prev, v_prev = vec.current.copy(), vec.v_out.copy()
                vec.step(t.copy(), h, err_i_out=err_i, err_v_out=err_v)
                for lane, twin in enumerate(twins):
                    ei, ev = twin.step(t.item(lane), h.item(lane))
                    assert err_i.item(lane) == ei, f"{where}: err_i"
                    assert err_v.item(lane) == ev, f"{where}: err_v"
                    # a zero-width lane keeps its state, except that an
                    # open phase whose i*i underflows clamps to zero (as
                    # on its next real step)
                    i_lane = i_prev[lane]
                    if h[lane] == 0.0 and not np.any(
                            (i_lane != 0.0) & (np.abs(i_lane) < 1e-150)):
                        assert vec.current[lane].tolist() == \
                            i_lane.tolist(), f"{where}: idle lane"
                        assert vec.v_out[lane] == v_prev[lane]
                t += h
            else:
                vec.step(t, dt)
                for twin in twins:
                    twin.step(t, dt)
                t += dt
            for lane, twin in enumerate(twins):
                _assert_lane(vec, twin, lane, f"{where} lane {lane}",
                             track_energy)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 9])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["fixed", "adaptive"])
def test_vector_step_matches_scalar_twin(p, adaptive):
    _run(p, adaptive, track_energy=True, seed=1000 * p + adaptive)


@pytest.mark.parametrize("p", [4, 8])
def test_untracked_energy_keeps_dynamics(p):
    _run(p, adaptive=False, track_energy=False, seed=7 + p)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 9])
def test_lane_slopes_match_scalar_derivatives(p):
    """``lane_slopes`` (one lane, Python floats, from the stage's switch
    tables) equals the scalar twin's ``_derivatives`` value for value on
    every lane that soft saturation leaves alone (``lane_slopes`` skips
    the derating).  Every switch state meets every current sign."""
    rng = random.Random(500 + p)
    configs = _configs(rng, p)
    vec = VectorizedPowerStage(configs)
    twins = _twins(configs)
    seen = set()
    for rnd in range(ROUNDS):
        _randomize(rng, vec, twins, rebuild=rnd % 3 == 0)
        t = rng.uniform(0.0, 1.2) * US
        for lane, twin in enumerate(twins):
            cur = [ph.current for ph in twin.phases]
            if any(abs(i) > ph.coil.i_sat for i, ph in zip(cur, twin.phases)):
                continue
            where = f"P={p} round {rnd} lane {lane}"
            got_i, got_didt, got_v, got_dvdt = vec.lane_slopes(lane, t)
            want_didt, want_dvdt = twin._derivatives(t, cur, twin.v_out)
            assert got_i == cur, f"{where}: currents"
            assert got_v == twin.v_out, f"{where}: v_out"
            assert got_didt == want_didt, f"{where}: di/dt"
            assert got_dvdt == want_dvdt, f"{where}: dv/dt"
            for ph, i in zip(twin.phases, cur):
                sw = "P" if ph.pmos_on else ("N" if ph.nmos_on else "o")
                seen.add((sw, (i > 0.0) - (i < 0.0)))
    assert seen == {(sw, sign) for sw in "PNo" for sign in (-1, 0, 1)}


def test_lane_slopes_add_phase_currents_in_order():
    """``lane_slopes``' dv/dt adds the phase currents in order, like the
    scalar twin, on every Python version."""
    config = SystemConfig(n_phases=4, inductance=4.7 * UH, v_in=5.0,
                          c_out=0.47e-6, v_out0=3.3,
                          load=LoadProfile.constant(6.0))
    vec = VectorizedPowerStage([config])
    vec.current[0] = UNEVEN_CURRENTS
    _, _, v, dvdt = vec.lane_slopes(0, 0.0)
    a, b, c, d = UNEVEN_CURRENTS
    assert v == 3.3
    assert dvdt == ((((a + b) + c) + d) - 3.3 / 6.0) / 0.47e-6


def _commutate(rng, stage, lane, k, how):
    """Flip one lane-phase's switch state on ``stage``: through the
    gate-driver view (``entry``) or the arrays plus the full rebuild
    (``refresh``)."""
    pmos, nmos = bool(stage.pmos_on[lane, k]), bool(stage.nmos_on[lane, k])
    if pmos or nmos:
        new = (False, False)
    else:
        new = rng.choice(((True, False), (False, True)))
    if how == "entry":
        view = stage.lanes[lane].phases[k]
        view.set_pmos(False)
        view.set_nmos(False)
        view.set_pmos(new[0])
        view.set_nmos(new[1])
    else:
        stage.pmos_on[lane, k], stage.nmos_on[lane, k] = new
        stage._refresh_switch()


@pytest.mark.parametrize("how", ["none", "entry", "refresh"])
@pytest.mark.parametrize("p", [1, 4, 9])
def test_primed_k1_step_matches_fresh_stage(p, how):
    """``prime_k1`` then ``step`` from the same ``t`` equals the step of
    a stage that never primed, bit for bit — also when a commutation ran
    in between, which must make the step evaluate its first stage again
    instead of reusing the stale primed slopes — and the step after it
    evaluates its own slopes again."""
    rng = random.Random(700 + 10 * p + len(how))
    configs = _configs(rng, p)
    primed = VectorizedPowerStage(configs)
    fresh = VectorizedPowerStage(configs)
    twins = _twins(configs)
    stages = (primed, fresh)
    errs = [(np.empty(N_LANES), np.empty(N_LANES)) for _ in stages]
    for rnd in range(ROUNDS):
        _randomize(rng, primed, twins, rebuild=rnd % 3 == 0)
        fresh.current[:] = primed.current
        fresh.v_out[:] = primed.v_out
        fresh.pmos_on[:] = primed.pmos_on
        fresh.nmos_on[:] = primed.nmos_on
        fresh._refresh_switch()
        t = np.array([rng.uniform(0.0, 1.2) * US for _ in range(N_LANES)])
        h = np.array([0.0 if rng.random() < 0.2
                      else rng.uniform(0.1, 50.0) * NS
                      for _ in range(N_LANES)])
        primed.prime_k1(t)
        if how != "none":
            lane, k = rng.randrange(N_LANES), rng.randrange(p)
            state = rng.getstate()
            for st in stages:
                rng.setstate(state)
                _commutate(rng, st, lane, k, how)
        # the primed step, then a plain one (the priming is used once)
        for step in range(2):
            for st, (err_i, err_v) in zip(stages, errs):
                st.step(t.copy(), h.copy(), err_i, err_v)
            where = f"P={p} {how} round {rnd} step {step}"
            assert primed.current.tolist() == fresh.current.tolist(), where
            assert primed.v_out.tolist() == fresh.v_out.tolist(), where
            for got, want in zip(*errs):
                assert got.tolist() == want.tolist(), \
                    f"{where}: error estimate"
            for name in ("energy_in_j", "energy_out_j", "coil_loss_j"):
                assert getattr(primed, name).tolist() == \
                    getattr(fresh, name).tolist(), f"{where}: {name}"
            t += h


# a subnormal slope divides to an infinite crossing time (on both
# sides), which never wins the minimum
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [1, 4, 9])
def test_crossing_caps_match_scalar_crossing_cap(p):
    """The adaptive planner's per-lane crossing cap equals the scalar
    solver's ``_crossing_cap`` value for value: every comparator armed
    or released, OC/ZC in both reference modes, ``v_out`` and the phase
    currents on both sides of every armed level, and open phases at
    nonzero current (the body-diode clamp)."""
    rng = random.Random(300 + p)
    configs = _configs(rng, p)
    policy = SteppingPolicy.from_config(
        dataclasses.replace(configs[0], stepping="adaptive"))
    sims = [Simulator() for _ in configs]
    vec = VectorizedPowerStage(configs)
    bank = VectorComparatorBank(sims, configs, p)
    solver = VectorizedSolver(sims, vec, bank, configs[0].dt, policy=policy)
    lane_sensors = [LaneSensors(bank, lane) for lane in range(N_LANES)]
    twins = _twins(configs)
    sensors = [SensorBank(Simulator(), twin) for twin in twins]
    scalars = [AnalogSolver(Simulator(), twin, bank_, trace=False)
               for twin, bank_ in zip(twins, sensors)]
    refs = BuckReferences()
    v_levels = (refs.v_min, refs.v_ref, refs.v_max)
    i_levels = (refs.i_max, refs.i_0, refs.i_neg)
    sides = set()
    for rnd in range(ROUNDS):
        _randomize(rng, vec, twins, rebuild=rnd % 3 == 0)
        for lane, twin in enumerate(twins):
            if rng.random() < 0.7:
                v = rng.choice(v_levels) + rng.uniform(-0.05, 0.05)
                vec.v_out[lane] = twin.v_out = v
            for k, phase in enumerate(twin.phases):
                if rng.random() < 0.5:
                    i = rng.choice(i_levels) + rng.uniform(-0.02, 0.02)
                    vec.current[lane, k] = phase.current = i
                on = rng.random() < 0.3
                lane_sensors[lane].set_ov_mode(k, on)
                sensors[lane].set_ov_mode(k, on)
            comps = sensors[lane].all_comparators()
            for col, comp in enumerate(comps):
                comp._state = rng.random() < 0.5
                bank.state[lane, col] = comp._state
            cur = [ph.current for ph in twin.phases]
            for col, (comp, x) in enumerate(zip(
                    comps, [twin.v_out] * 3 + cur + cur)):
                sides.add((col, x > comp.armed_level(), comp._state))
        t = np.array([rng.uniform(0.0, 1.2) * US for _ in range(N_LANES)])
        caps = solver._crossing_caps(t)
        for lane, scalar in enumerate(scalars):
            want = scalar._crossing_cap(t.item(lane))
            assert caps.item(lane) == want, f"P={p} round {rnd} lane {lane}"
    n_cols = 3 + 2 * p
    assert sides == {(col, above, armed) for col in range(n_cols)
                     for above in (False, True) for armed in (False, True)}
