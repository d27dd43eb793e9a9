#!/usr/bin/env python
"""Demo: every repro.lint rule family firing on a miniature broken tree.

Writes a tiny package into a temp directory with one of each kind of
violation the analyzer knows about — an unseeded RNG draw, a wall-clock
read, unordered iteration, id()-ordering, a set flowing (through
variables) into a wire encoding, an unguarded write to a `guarded_by`
attribute, a lock-order inversion and a blocking call under a lock —
runs the analyzer over it, and prints the findings grouped by rule
family.
Exits non-zero if any family finds nothing, so a rule-catalog or
LintConfig change that leaves the demo behind fails loudly (CI runs
it).

Nothing here touches the real tree (which is lint-clean; that is a
tier-1 test).  Use this to see what each finding looks like before you
meet one in CI, or `python -m repro.lint --explain <RULE>` for the
catalog entry.

Run:  python examples/lint_demo.py
"""

import sys
import tempfile
from pathlib import Path

from repro.lint import FAMILIES, LintConfig, RULES, run_lint

#: the miniature broken tree, mirroring the real module layout
BROKEN_TREE = {
    "scenarios/parallel.py": '''\
import json
import random
import time


def shard(specs, pool_dir):
    t0 = time.perf_counter()            # wall clock -> D02
    jitter = random.random()            # global RNG -> D01
    for path in pool_dir.glob("*.json"):   # fs order -> D03
        specs.append(path)
    for name in {"uv", "ov"}:           # set order -> D03
        specs.append(name)
    specs.sort(key=id)                  # address order -> D04
    return t0, jitter


def manifest(specs):
    names = set(s.name for s in specs)
    payload = {"names": list(names)}    # taint survives the literal
    return json.dumps(payload)          # set order on the wire -> D05
''',
    "session/telemetry.py": '''\
import threading
import time


class Telemetry:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition()
        # lint: guarded_by(self._lock: bumped from worker threads)
        self.count = 0

    def bump(self):
        self.count += 1                 # lock not held -> L01

    def flush(self):
        with self._lock:
            time.sleep(0.1)             # blocking under a lock -> L03
            with self._cond:
                self._cond.notify_all()

    def drain(self):
        with self._cond:
            with self._lock:            # reverse nesting -> L02
                return self.count
''',
}


def build_tree(root: Path) -> LintConfig:
    for relpath, source in BROKEN_TREE.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return LintConfig(root=root, scan_paths=tuple(BROKEN_TREE))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lint_demo_") as tmp:
        report = run_lint(build_tree(Path(tmp)))

        print("repro.lint demo — one miniature tree, every rule family")
        print(f"  modules scanned : {report.modules_scanned}")
        print(f"  findings        : {len(report.findings)}")
        print()
        silent = []
        for family in FAMILIES:
            members = [f for f in report.findings
                       if RULES[f.rule].family == family]
            if not members:
                silent.append(family)
                continue
            print(f"--- {family} ({len(members)}) ---")
            for finding in members:
                print(finding.render())
            print()
        fired = sorted({f.rule for f in report.findings})
        print(f"rules fired: {', '.join(fired)}")
        print("explain any of them with: "
              "python -m repro.lint --explain <RULE>")
    if silent:
        print(f"FAIL: no finding from rule families {silent}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
