#!/usr/bin/env python
"""Demo: every repro.lint rule firing on a miniature broken tree.

Writes a tiny package into a temp directory with one of each kind of
violation the analyzer knows about — an unseeded RNG draw, a wall-clock
read, unordered iteration, id()-ordering, a set flowing (through
variables) into a wire encoding, an observability value in a cache key,
a malformed suppression and a module that does not parse — runs the
analyzer over it, and prints the findings grouped by rule.
Exits non-zero if any rule finds nothing, so a rule-catalog or
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

from repro.lint import LintConfig, RULES, run_lint

#: the miniature broken tree, mirroring the real module layout
BROKEN_TREE = {
    "scenarios/parallel.py": '''\
import json
import random
import time

from repro import obs
from repro.session import cache_key


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


def key_of(cfg):
    stamp = obs.now()
    return cache_key(cfg, stamp)        # obs value in a key -> D06


def legacy(specs):
    return specs  # lint: ok(D03)   (no reason given -> X01)
''',
    "scenarios/engine.py": "def run(:\n",   # does not parse -> X00
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

        print("repro.lint demo — one miniature tree, every rule")
        print(f"  modules scanned : {report.modules_scanned}")
        print(f"  findings        : {len(report.findings)}")
        print()
        silent = []
        for rule_id in sorted(RULES):
            members = [f for f in report.findings if f.rule == rule_id]
            if not members:
                silent.append(rule_id)
                continue
            print(f"--- {rule_id} {RULES[rule_id].title} ---")
            for finding in members:
                print(finding.render())
            print()
        print("explain any of them with: "
              "python -m repro.lint --explain <RULE>")
    if silent:
        print(f"FAIL: no finding from rules {silent}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
