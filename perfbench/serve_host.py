"""Start the sweep server with one layer instrument installed.

``run.py`` uses this for the traced serve phases; the plain phases run
``python -m repro.serve`` itself::

    python perfbench/serve_host.py --layers spans --out FILE -- \
        --port 0 --cache-dir DIR --job-workers 1

``--layers spans`` installs the call timers of :mod:`layers`;
``--layers profile`` runs every thread the server starts (request and
job threads) under its own ``cProfile``, timed in thread CPU time.  The
server then runs exactly as ``python -m repro.serve`` with the
arguments after ``--``; when it exits on SIGINT the layer data is
written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def profile_threads(profiles: List[cProfile.Profile],
                    lock: threading.Lock) -> None:
    """Run every thread started from now on under its own profiler."""
    original_run = threading.Thread.run

    def run(self) -> None:
        # thread CPU time: a thread waiting for the GIL is not working
        profiler = cProfile.Profile(time.thread_time)
        profiler.enable()
        try:
            original_run(self)
        finally:
            profiler.disable()
            with lock:
                profiles.append(profiler)

    threading.Thread.run = run


def merged_stats(profiles: List[cProfile.Profile]) -> Dict[Any, Any]:
    merged = None
    for profiler in profiles:
        try:
            stats = pstats.Stats(profiler)
        except TypeError:      # a thread that ran no Python code
            continue
        if merged is None:
            merged = stats
        else:
            merged.add(stats)
    return merged.stats if merged is not None else {}


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("--layers", choices=("spans", "profile"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv[:split])
    from repro.serve.__main__ import main as serve_main

    spans = None
    profiles: List[cProfile.Profile] = []
    lock = threading.Lock()
    if args.layers == "spans":
        spans = layers.Spans().install()
    else:
        profile_threads(profiles, lock)
    try:
        code = serve_main(argv[split + 1:])
    finally:
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        if spans is not None:
            data = {"spans": spans.totals()}
        else:
            with lock:
                done = list(profiles)
            data = {"profile": layers.profile_split(merged_stats(done))}
        Path(args.out).write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    sys.exit(main())
