"""Step-level parity: the vector power stage against its scalar twin.

Every lane of a :class:`VectorizedPowerStage` must advance exactly like
a :class:`MultiphasePowerStage` built from the same config and driven
through the same switch states.  Seeded random lane states cover every
switch state, signed and tiny currents, body-diode decay and the
zero-crossing clamp, soft saturation, stepped loads, lock-step ``dt``
and per-lane adaptive ``dt`` vectors with zero-width lanes, for phase
counts on both sides of numpy's pairwise-summation block (8).

Currents, ``v_out``, ``energy_in_j``, ``energy_out_j``, ``coil_loss_j``
and the RK2(1) error estimates must be equal, value for value.  From
states without a ``-0.0`` current (every state a run reaches: no step
writes one) the currents and ``v_out`` are equal bit for bit, and no
state row holds ``-0.0``.  A ``-0.0`` planted on a conducting phase may
come out as ``0.0`` or stay: the vector drive ``B*i + A`` and the
scalar ``-i*r`` differ in the sign of a zero drive, so those states
compare by value.
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

#: zero, subnormals and tiny currents around the clamp and the diode
#: sign tests
REACHABLE_CURRENTS = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, -1e-12)
#: ... plus a planted ``-0.0``, which no step writes
SPECIAL_CURRENTS = REACHABLE_CURRENTS + (-0.0,)


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


def _random_current(rng, i_sat, specials):
    r = rng.random()
    if r < 0.25:
        return rng.choice(specials)
    if r < 0.4:
        # beyond the coil's saturation current: soft-saturation derating
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.5) * i_sat
    return rng.uniform(-0.5, 0.5) * i_sat


def _randomize(rng, vec, twins, rebuild, specials=SPECIAL_CURRENTS):
    """Draw a fresh state for every lane and apply it to both stages
    (writing through the stage's ``(N, P)`` ``current`` view).

    Switch states go through the commutation path (``LanePhase``) or,
    when ``rebuild``, straight into the arrays followed by the full
    coefficient rebuild.
    """
    for lane, twin in enumerate(twins):
        v = rng.choice((0.0, rng.uniform(0.0, 4.0)))
        vec.v_out[lane] = v
        twin.v_out = v
        for k, phase in enumerate(twin.phases):
            i = _random_current(rng, phase.coil.i_sat, specials)
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


def _bits(values):
    """Bytes of float64 values: equality that tells ``-0.0`` from
    ``0.0``."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _no_negative_zero(x):
    return not np.any((x == 0.0) & np.signbit(x))


def _assert_lane(vec, twin, lane, where, track_energy, bits):
    cur = [p.current for p in twin.phases]
    if bits:
        assert _bits(vec.current[lane]) == _bits(cur), f"{where}: currents"
        assert _bits(vec.v_out[lane]) == _bits(twin.v_out), \
            f"{where}: v_out"
    else:
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


def _run(p, adaptive, track_energy, seed, specials=SPECIAL_CURRENTS):
    bits = specials == REACHABLE_CURRENTS
    rng = random.Random(seed)
    configs = _configs(rng, p)
    vec = VectorizedPowerStage(configs, track_energy=track_energy)
    twins = _twins(configs)
    err_i, err_v = np.empty(N_LANES), np.empty(N_LANES)
    for rnd in range(ROUNDS):
        _randomize(rng, vec, twins, rebuild=rnd % 3 == 0, specials=specials)
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
                before = vec.state.copy()
                energy = [getattr(vec, name).copy() for name in
                          ("energy_in_j", "energy_out_j", "coil_loss_j")]
                vec.step(t.copy(), h, err_i_out=err_i, err_v_out=err_v)
                for lane, twin in enumerate(twins):
                    ei, ev = twin.step(t.item(lane), h.item(lane))
                    assert err_i.item(lane) == ei, f"{where}: err_i"
                    assert err_v.item(lane) == ev, f"{where}: err_v"
                    # a zero-width lane keeps its state, except that an
                    # open phase whose i*i underflows clamps to zero (as
                    # on its next real step)
                    x_lane = before[:, lane]
                    if h[lane] == 0.0 and not np.any(
                            (x_lane[:p] != 0.0)
                            & (np.abs(x_lane[:p]) < 1e-150)):
                        if bits:
                            assert _bits(vec.state[:, lane]) == \
                                _bits(x_lane), f"{where}: idle lane"
                            for got, was in zip(
                                    (vec.energy_in_j, vec.energy_out_j,
                                     vec.coil_loss_j), energy):
                                assert _bits(got[lane]) == _bits(was[lane])
                        else:
                            assert vec.state[:, lane].tolist() == \
                                x_lane.tolist(), f"{where}: idle lane"
                t += h
            else:
                vec.step(t, dt)
                for twin in twins:
                    twin.step(t, dt)
                t += dt
            for lane, twin in enumerate(twins):
                _assert_lane(vec, twin, lane, f"{where} lane {lane}",
                             track_energy, bits)
            if bits:
                assert _no_negative_zero(vec.state), f"{where}: -0.0"


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 9, 12])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["fixed", "adaptive"])
def test_vector_step_matches_scalar_twin(p, adaptive):
    _run(p, adaptive, track_energy=True, seed=1000 * p + adaptive)


@pytest.mark.parametrize("p", [1, 4, 9, 12])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["fixed", "adaptive"])
def test_reachable_states_step_bit_for_bit(p, adaptive):
    """From states without ``-0.0`` the vector step writes the scalar
    twin's bits (the clamp writes ``0.0``, never ``-0.0``), no state row
    holds ``-0.0``, and a zero-width lane keeps its state and energies
    byte for byte."""
    _run(p, adaptive, track_energy=True, seed=77 + 1000 * p + adaptive,
         specials=REACHABLE_CURRENTS)


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


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["fixed", "adaptive"])
def test_nan_current_stays_nan_through_the_clamp(p, adaptive):
    """A NaN current fails both clamp tests, so it stays NaN, on an open
    phase and on a conducting one, as on the scalar twin (the clamp must
    not write 0.0 over it)."""
    rng = random.Random(40 + p)
    configs = _configs(rng, p)[:3]
    vec = VectorizedPowerStage(configs)
    twins = _twins(configs)
    for lane, sw in enumerate("oPN"):
        vec.current[lane, 0] = twins[lane].phases[0].current = np.nan
        view = vec.lanes[lane].phases[0]
        view.set_pmos(sw == "P")
        view.set_nmos(sw == "N")
        twins[lane].phases[0].pmos_on = sw == "P"
        twins[lane].phases[0].nmos_on = sw == "N"
    t, dt = 0.2 * US, 1 * NS
    if adaptive:
        vec.step(np.full(3, t), np.full(3, dt), np.empty(3), np.empty(3))
    else:
        vec.step(t, dt)
    for lane, twin in enumerate(twins):
        twin.step(t, dt)
        assert np.isnan(twin.phases[0].current)
        assert np.isnan(vec.current[lane, 0]), f"lane {lane}"


@pytest.mark.parametrize("n", [1, 2, 20])
def test_axis0_accumulate_adds_rows_in_order(n):
    """The stage's phase sum is the last row of an axis-0
    ``add.accumulate``: the rows added one after another, like the
    scalar twin's ``total += i``, for any lane count.  (An axis-0
    ``add.reduce`` agrees only while ``n > 1``: with one lane NumPy
    sums eight or more rows pairwise.)"""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((12, n)) * 10.0 ** rng.integers(-6, 6, (12, n))
    ordered = x[0].copy()
    for row in x[1:]:
        ordered += row
    assert np.add.accumulate(x, axis=0)[-1].tobytes() == ordered.tobytes()


def test_single_lane_sums_twelve_phases_in_order():
    """A one-lane stage at P=12 takes the scalar twin's in-order dv/dt
    on currents whose pairwise sum gives another dv/dt."""
    c_out = 0.47e-6
    config = SystemConfig(n_phases=12, inductance=4.7 * UH, v_in=5.0,
                          c_out=c_out, v_out0=0.0,
                          load=LoadProfile.constant(6.0))
    rng = random.Random(12)
    while True:   # until the pairwise sum shows in dv/dt
        currents = [rng.uniform(-0.3, 0.3) for _ in range(12)]
        ordered = 0.0
        for i in currents:
            ordered += i
        if ordered / c_out != np.add.reduce(np.array(currents)) / c_out:
            break
    vec = VectorizedPowerStage([config])
    twin, = _twins([config])
    vec.current[0] = currents
    for phase, i in zip(twin.phases, currents):
        phase.current = i
    _, dvdt = vec.prime_k1(np.zeros(1))
    assert dvdt.item(0) == twin._derivatives(0.0, currents, 0.0)[1]


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
@pytest.mark.parametrize("p", [1, 4, 9, 12])
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
@pytest.mark.parametrize("p", [1, 4, 9, 12])
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


def _bank_rig(p, seed):
    rng = random.Random(seed)
    configs = _configs(rng, p)
    sims = [Simulator() for _ in configs]
    return (VectorizedPowerStage(configs),
            VectorComparatorBank(sims, configs, p), sims)


def _log_edges(sims):
    """Record each scheduled comparator edge as ``(lane, signal name,
    value)``, in scheduling order."""
    edges = []
    for lane, sim in enumerate(sims):
        def schedule_at(when, callback, lane=lane, orig=sim.schedule_at):
            out, value = callback.__defaults__
            edges.append((lane, out.name, value))
            return orig(when, callback)
        sim.schedule_at = schedule_at
    return edges


def test_same_tick_flips_schedule_edges_lane_by_lane():
    """Flips on several lanes in one sample schedule their edges in
    row-major (lane, column) order, each flip updates the comparator's
    state and its latched trip level, and the levels equal a full
    rebuild afterwards."""
    p = 4
    stage, bank, sims = _bank_rig(p, seed=5)
    bank.sample(0.0, stage.state, stage.prev_state)
    edges = _log_edges(sims)
    refs = BuckReferences()
    # every lane trips ov and oc_1 together; lanes 1 and 4 also hl
    for lane in range(N_LANES):
        stage.v_out[lane] = (refs.v_min - 0.5 if lane in (1, 4)
                             else refs.v_max + 0.1)
        stage.current[lane] = 0.0
        stage.current[lane, 1] = refs.i_max + 0.1
    want = stage.state.copy()
    before = bank.state.copy()
    bank.sample(1 * NS, stage.state, stage.prev_state)
    names = ["hl", "uv", "ov"] + [f"oc{k}" for k in range(p)] \
        + [f"zc{k}" for k in range(p)]
    flipped = [(lane, names[c], not before[lane, c])
               for lane in range(N_LANES) for c in range(len(names))
               if bank.state[lane, c] != before[lane, c]]
    assert edges == flipped
    assert len({lane for lane, _, _ in edges}) == N_LANES
    assert sorted(edges, key=lambda e: names.index(e[1])) != edges
    assert (stage.state == want).all()
    assert bank.state[1, 0] and bank.state[4, 0]      # hl
    assert bank.state[:, 2].sum() == N_LANES - 2      # ov
    assert bank.state[:, 3 + 1].all()                 # oc_1
    level = bank._level.copy()
    bank.refresh_levels()
    assert bank._level.tobytes() == level.tobytes()


def test_writes_through_lane_views_reach_the_next_sample():
    """``bank.state[lane, c] = ...`` and ``stage.current[lane, k] = ...``
    write the comparator-major and phase-major arrays: the next sample
    corrects the planted state and trips on the planted current (the
    stage side is covered by the parity runs, which plant every state
    through ``current`` and ``v_out``)."""
    p = 4
    stage, bank, sims = _bank_rig(p, seed=9)
    refs = BuckReferences()
    stage.v_out[:] = 0.5 * (refs.v_ref + refs.v_max)
    bank.sample(0.0, stage.state, stage.prev_state)
    edges = _log_edges(sims)
    hl = bool(bank.state[3, 0])
    bank.state[3, 0] = not hl                 # planted: hl flipped
    stage.current[2, 1] = refs.i_max + 0.1    # planted: oc_1 trips
    bank.sample(1 * NS, stage.state, stage.prev_state)
    assert bank.state[3, 0] == hl
    assert bank.state[2, 3 + 1] and not bank.state[2, 3 + p + 1]
    assert edges == [(2, "oc1", True), (2, "zc1", False), (3, "hl", hl)]
