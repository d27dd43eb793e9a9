#!/usr/bin/env python
"""Batched scenario sweeps: grids and random tolerance studies.

Two sweeps through the :class:`repro.Session` front door:

1. a controller-vs-coil *grid* (a miniature Fig. 7a) — every combination
   runs as one vectorized batch instead of sequential simulations;
2. a *random tolerance study* — coil inductance and load resistance drawn
   per lane from seeded distributions, answering "how bad can the peak
   current get across component spread?".

``--workers N`` shards the batches across worker processes and
``--cache`` turns on the content-addressed result cache (re-running this
script then serves every lane from the cache, bit-identical) — both are
Session policies, not per-sweep knobs.  ``--trace`` attaches each lane's
waveform :class:`~repro.trace.TraceSet` to its result; traced lanes
shard and cache exactly like untraced ones.  ``--require-hot`` exits
non-zero unless *every* lane was served from cache (the CI traced-smoke
step runs the script twice and requires the second pass to be hot).

``--progress`` streams one line per lane as it lands (the
``Session.sweep(on_result=...)`` hook — the same mechanism behind the
sweep server's live SSE events): cache hits land first, fresh lanes in
completion order when sharded.  The run exits non-zero unless every
lane landed exactly once (the CI sharded smoke runs with it).

Run:  python examples/sweep.py [--workers N] [--cache] [--cache-dir D]
                               [--trace] [--require-hot] [--progress]
"""

import argparse
import sys

from repro import Session
from repro.scenarios import Sweep, log_uniform, uniform
from repro.sim import NS, US, fmt_si


def run_sweep(session: Session, sweep: Sweep, label: str, trace: bool,
              progress: bool):
    """Run ``sweep``.  With ``progress``, a ``Session.sweep(on_result=...)``
    hook prints one line per lane as it lands (completion order under
    ``--workers N``, spec order inline; cache hits land first and are
    marked), and the script exits non-zero unless every lane landed
    exactly once."""
    if not progress:
        return session.sweep(sweep, track_energy=False, trace=trace)
    total = len(sweep)
    print(f"{label} sweep: {total} lanes")
    landed = []

    def hook(index, point):
        landed.append(index)
        source = "cache" if point.cached else "fresh"
        print(f"  [{len(landed):>2}/{total}] lane {index:<2} {source}  "
              f"{point.spec.name}", flush=True)

    points = session.sweep(sweep, track_energy=False, trace=trace,
                           on_result=hook)
    if sorted(landed) != list(range(total)):
        sys.exit(f"FAIL: {label} sweep landed lanes {sorted(landed)}, "
                 f"expected each of 0..{total - 1} exactly once")
    return points


def grid_demo(session: Session, trace: bool, progress: bool) -> None:
    sweep = (Sweep(base={"n_phases": 4, "r_load": 6.0, "sim_time": 10 * US,
                         "dt": 1 * NS},
                   name="mini-fig7a")
             .grid(ctrl=[("ASYNC", {"controller": "async"}),
                         ("333MHz", {"controller": "sync",
                                     "fsm_frequency": 333e6})],
                   l_uh=[1.0, 4.7, 10.0]))
    points = run_sweep(session, sweep, "grid", trace, progress)

    print("grid sweep: peak coil current (controller x inductance)")
    for point in points:
        peak = fmt_si(point.result.peak_coil_current, "A")
        extra = ""
        if trace:
            ts = point.result.trace
            extra = (f"  trace: {len(ts.channels)} ch x "
                     f"{ts.n_samples('v_load')} rows")
        print(f"  {point.spec.name:<40} peak = {peak}{extra}")
    print()


def random_demo(session: Session, trace: bool, progress: bool) -> None:
    sweep = (Sweep(base={"controller": "async", "n_phases": 4,
                         "sim_time": 10 * US, "dt": 1 * NS},
                   seed=2024, name="tolerance")
             .random(8,
                     l_uh=log_uniform(1.0, 10.0),
                     r_load=uniform(3.0, 15.0)))
    points = run_sweep(session, sweep, "random", trace, progress)

    print("random tolerance study (8 seeded draws, async controller)")
    worst = max(points, key=lambda p: p.result.peak_coil_current)
    for point in points:
        o = point.spec.overrides
        marker = "  <-- worst" if point is worst else ""
        print(f"  L={o['l_uh']:5.2f} uH  R={o['r_load']:5.2f} Ohm  "
              f"peak={point.result.peak_coil_current * 1e3:6.1f} mA  "
              f"v_final={point.result.v_final:.3f} V{marker}")
    print()
    print("re-running the same sweep spec reproduces these numbers exactly "
          "(per-lane seeds are derived from the sweep seed).")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=None,
                        help="shard sweep batches across N worker processes")
    parser.add_argument("--cache", action="store_true",
                        help="serve repeats from the content-addressed "
                             "result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default .repro_cache/)")
    parser.add_argument("--trace", action="store_true",
                        help="attach each lane's waveform TraceSet "
                             "(sharded and cached like scalar results)")
    parser.add_argument("--require-hot", action="store_true",
                        help="fail unless every lane was served from cache "
                             "(implies --cache; for the CI smoke re-run)")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per lane as it lands "
                             "(completion order with --workers N); fail "
                             "unless every lane landed exactly once")
    args = parser.parse_args()
    use_cache = args.cache or args.require_hot
    session = Session(workers=args.workers,
                      cache="readwrite" if use_cache else "off",
                      cache_dir=args.cache_dir)
    grid_demo(session, args.trace, args.progress)
    random_demo(session, args.trace, args.progress)
    if use_cache:
        stats = session.cache_stats()
        print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
              f"under {stats['root']}")
        if args.require_hot and stats["misses"] > 0:
            print(f"FAIL: expected a fully cache-hot run, "
                  f"got {stats['misses']} misses", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
