"""Dispatch budget of the fixed-step vector tick.

One fixed tick is :meth:`VectorizedPowerStage.step`, then
:meth:`VectorizedSolver._record`, then
:meth:`VectorComparatorBank.sample`.  On a 20-lane batch its cost is
NumPy call dispatch, not arithmetic, and a same-shape contiguous call
is the cheapest dispatch.  These tests wrap every NumPy callable the
three methods take as keyword defaults in a counting shim, pin the
calls of one tick site by site, and check that every array operand is
C-contiguous with the lane axis last, so neither extra calls nor a
strided lane-major layout can come back unnoticed.  They also check
that the tick reads no other NumPy attribute than ``np.ndarray`` (the
``isinstance`` test of ``dt`` and ``t``).
"""

import inspect
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.scenarios import vector_solver, vector_stage
from repro.scenarios.vector_solver import (VectorComparatorBank,
                                           VectorizedSolver)
from repro.scenarios.vector_stage import VectorizedPowerStage
from repro.sim import NS, UH, Simulator
from repro.system import SystemConfig

N_LANES = 20
N_PHASES = 4
DT = 1 * NS

#: calls of one fixed tick with energy tracking off (the fig7a sweeps),
#: constant loads, no soft saturation, no comparator flip
BUDGET = Counter({
    # _derivatives, twice (k1 at t, k2 at the midpoint):
    #   less (i < 0), multiply (B*i), add (+A_pos), add where=neg
    #   (+A_neg), subtract (- v_out), absolute + maximum.reduce (the
    #   saturation probe), divide (/L), equal + logical_and + copyto
    #   (open at zero current: slope 0.0), add.accumulate (phase sum),
    #   divide (v/r), subtract, divide (/C)
    "_derivatives:_lt": 2, "_derivatives:_mul": 2, "_derivatives:_add": 4,
    "_derivatives:_sub": 4, "_derivatives:_abs": 2, "_derivatives:_max": 2,
    "_derivatives:_div": 6, "_derivatives:_eq": 2, "_derivatives:_and": 2,
    "_derivatives:_copyto": 2, "_derivatives:_acc": 2,
    # step: multiply + add for the midpoint and for the final update
    # (all P + 1 rows at once); the diode clamp: multiply (i0*i1),
    # less_equal, absolute twice, greater, logical_or, logical_and
    # (open phases only), copyto (0.0 where dropped)
    "step:_mul": 3, "step:_add": 2, "step:_le": 1, "step:_abs": 2,
    "step:_gt": 1, "step:_or": 1, "step:_and": 1, "step:_copyto": 1,
    # _record: running maximum and minimum of the joint state
    "_record:_max": 1, "_record:_min": 1,
    # sample: hl+uv, ov, oc_k, zc_k compares, not_equal, count_nonzero
    "sample:_lt": 2, "sample:_gt": 2, "sample:_ne": 1, "sample:_count": 1,
})

#: the extra calls of the energy bookkeeping: coil loss (multiply x2,
#: add, multiply x3, add), input energy (add, multiply x3,
#: add.accumulate, add), output energy (multiply x2, add, multiply,
#: divide, multiply, add)
ENERGY = Counter({"step:_mul": 12, "step:_add": 6, "step:_acc": 1,
                  "step:_div": 1})

TICK_METHODS = (VectorizedPowerStage.step, VectorizedPowerStage._derivatives,
                VectorizedSolver._record, VectorComparatorBank.sample)


@contextmanager
def _counting(log):
    """Swap each NumPy keyword default of the tick methods for a shim
    that logs ``(site, array operands)`` and calls through."""
    saved = []
    for fn in TICK_METHODS:
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.default is not inspect.Parameter.empty]
        defaults = list(fn.__defaults__)
        for j, param in enumerate(params):
            if param.name.startswith("_"):
                defaults[j] = _shim(f"{fn.__name__}:{param.name}",
                                    param.default, log)
        saved.append((fn, fn.__defaults__))
        fn.__defaults__ = tuple(defaults)
    try:
        yield
    finally:
        for fn, defaults in saved:
            fn.__defaults__ = defaults


def _shim(site, fn, log):
    def call(*args, **kwargs):
        arrays = [a for a in (*args, *kwargs.values())
                  if isinstance(a, np.ndarray)]
        log.append((site, arrays))
        return fn(*args, **kwargs)
    return call


class _NumpyWatch:
    """Stands in for a module's ``np``: records every attribute read
    except ``ndarray``."""

    def __init__(self, reads):
        self._reads = reads

    def __getattr__(self, name):
        if name != "ndarray":
            self._reads.append(name)
        return getattr(np, name)


def _rig(track_energy):
    configs = [SystemConfig(n_phases=N_PHASES, v_out0=3.4, dt=DT,
                            inductance=(1.0 + 0.5 * i) * UH)
               for i in range(N_LANES)]
    sims = [Simulator()]
    sims += [Simulator(share_heap=sims[0]) for _ in configs[1:]]
    stage = VectorizedPowerStage(configs, track_energy=track_energy)
    bank = VectorComparatorBank(sims, configs, N_PHASES)
    solver = VectorizedSolver(sims, stage, bank, dt=DT)
    solver.start()     # the t=0 sample latches the zc comparators
    tick = solver._make_fixed_tick()
    tick(0.0, DT)      # fills the fixed-dt operand arrays
    return stage, bank, tick


@pytest.mark.parametrize("track_energy", [False, True],
                         ids=["energy-off", "energy-on"])
def test_fixed_tick_dispatch_budget(track_energy, monkeypatch):
    stage, bank, tick = _rig(track_energy)
    state = bank.state.copy()
    log, reads = [], []
    watch = _NumpyWatch(reads)
    monkeypatch.setattr(vector_stage, "np", watch)
    monkeypatch.setattr(vector_solver, "np", watch)
    with _counting(log):
        tick(DT, 2 * DT)
    assert (bank.state == state).all(), "the counted tick must not flip"
    want = BUDGET + ENERGY if track_energy else BUDGET
    assert Counter(site for site, _ in log) == want
    assert sum(want.values()) == (70 if track_energy else 50)
    assert reads == []
    for site, arrays in log:
        for a in arrays:
            assert a.flags.c_contiguous, f"{site}: strided operand"
            if a.ndim > 1:
                assert a.shape[-1] == N_LANES, \
                    f"{site}: operand {a.shape} is not lane-last"
