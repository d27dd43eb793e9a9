"""Command line front door: ``python -m repro.lint [PATH] [options]``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage/configuration
error.  ``--json FILE`` writes the machine-readable report (CI uploads
it as an artifact); ``--sarif FILE`` writes a SARIF 2.1.0 log for
GitHub code-scanning annotations; ``--bench-json FILE`` records the
analyzer's own wall time and finding counts (the perf-trajectory
artifact); ``--explain RULE`` prints the catalog entry with a
miniature bad example.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .config import default_config_for
from .engine import run_lint
from .findings import explain, rule_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & cache-soundness static analyzer for "
                    "the repro package.")
    parser.add_argument(
        "path", nargs="?", default=None,
        help="package root to scan: .../repro, a src/ directory, or a "
             "repo root (default: the installed repro package)")
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the JSON report to FILE ('-' for stdout)")
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="write a SARIF 2.1.0 log to FILE (GitHub code-scanning "
             "annotations)")
    parser.add_argument(
        "--bench-json", metavar="FILE", default=None,
        help="record the analyzer's wall time and finding counts to "
             "FILE (perf-trajectory artifact)")
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print the catalog entry for one rule id (e.g. D03) and "
             "exit")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule id with its title and exit")
    parser.add_argument(
        "--quiet", action="store_true",
        help="print findings only, no summary line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        from .findings import RULES
        for rule_id in rule_ids():
            rule = RULES[rule_id]
            print(f"{rule_id} [{rule.family}] {rule.title}")
        return 0

    if args.explain is not None:
        text = explain(args.explain)
        if text is None:
            print(f"unknown rule id {args.explain!r}; known: "
                  f"{', '.join(rule_ids())}", file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.path is None:
        package_root = Path(__file__).resolve().parent.parent
        path = package_root
    else:
        path = Path(args.path)
    try:
        config = default_config_for(path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    report = run_lint(config)
    wall_s = time.perf_counter() - t0

    if args.bench_json is not None:
        by_rule: dict = {}
        for finding in report.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        bench = {
            "bench": "lint_self_run",
            "wall_s": round(wall_s, 4),
            "modules_scanned": report.modules_scanned,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "by_rule": by_rule,
        }
        Path(args.bench_json).write_text(
            json.dumps(bench, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")

    if args.sarif is not None:
        from .sarif import write_sarif
        write_sarif(Path(args.sarif), report, config)

    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=1, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")

    for finding in report.findings:
        print(finding.render())
    if not args.quiet:
        status = "clean" if report.clean else \
            f"{len(report.findings)} finding(s)"
        print(f"repro.lint: {status} — {report.modules_scanned} modules, "
              f"{len(report.suppressed)} suppressed")
    return 0 if report.clean else 1
