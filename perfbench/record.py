"""Record ``reference.json``: the outputs every benchmark pass is checked
against, for each recorded input seed.

    PYTHONPATH=src python3 perfbench/record.py

Run it only on the commit whose outputs are the reference.  A change
that claims only a speed-up must leave this file untouched and still
pass the benchmark's output check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from worker import Fig6, Fig7a  # noqa: E402


def main() -> int:
    reference = {"n_seeds": common.N_SEEDS,
                 "fig7a_fixed": {}, "fig7a_adaptive": {}, "fig6_traced": {}}
    work = Path(tempfile.mkdtemp(prefix="perfbench-record-"))
    try:
        for seed in range(common.N_SEEDS):
            for stepping in ("fixed", "adaptive"):
                workload = Fig7a(seed, work, stepping)
                _, points, _ = workload.sweep_into(workload.fresh_dir())
                results = [p.result.to_dict() for p in points]
                reference[workload.kind][str(seed)] = {
                    "lanes": [{"spec": p.spec.name,
                               "digest": common.lane_digest(r),
                               "peak_coil_current": r["peak_coil_current"]}
                              for p, r in zip(points, results)],
                    "counters": common.sum_counters(results),
                }
            fig6 = Fig6(seed, work)
            runs, counters = fig6.outputs(fig6.run())
            reference[fig6.kind][str(seed)] = {"runs": runs,
                                               "counters": counters}
            print(f"seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(common.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
