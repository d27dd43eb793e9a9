"""The analyzer runner: one tree walk, then the rules over it.

:func:`build_index` parses every configured module exactly once into a
:class:`ModuleIndex`; the rules consume the shared index (no rule
re-reads or re-parses source).  :func:`run_lint` runs them, applies
``# lint: ok(RULE: reason)`` suppressions, and returns a
:class:`LintReport` with deterministic finding order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .config import LintConfig, has_bare_suppression, parse_suppression
from .findings import Finding


@dataclass
class ModuleInfo:
    """One parsed source module, shared by every rule."""

    relpath: str               #: posix path relative to the scanned root
    path: Path
    source: str
    lines: List[str]
    tree: ast.Module


class ModuleIndex:
    """All parsed modules, keyed by root-relative posix path."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    def get(self, relpath: str) -> Optional[ModuleInfo]:
        return self.modules.get(relpath)

    def under(self, prefixes: Sequence[str]) -> List[ModuleInfo]:
        """Modules whose relpath is one of ``prefixes`` or inside one."""
        out = []
        for relpath in sorted(self.modules):
            for prefix in prefixes:
                if relpath == prefix or relpath.startswith(prefix + "/"):
                    out.append(self.modules[relpath])
                    break
        return out


def build_index(config: LintConfig) -> Tuple[ModuleIndex, List[Finding]]:
    """Parse every module the configuration references, once."""
    index = ModuleIndex()
    findings: List[Finding] = []
    root = Path(config.root)
    for entry in sorted(set(config.scan_paths)):
        path = root / entry
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            findings.append(Finding(
                "X00", entry, 1,
                f"configured path {entry!r} not found under {root}",
                "fix the lint configuration (scan_paths)"))
            continue
        for file in files:
            relpath = file.relative_to(root).as_posix()
            if relpath in index.modules:
                continue
            source = file.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                findings.append(Finding(
                    "X00", relpath, exc.lineno or 1,
                    f"module does not parse: {exc.msg}",
                    "fix the syntax error; the analyzer cannot check "
                    "what it cannot parse"))
                continue
            index.modules[relpath] = ModuleInfo(
                relpath=relpath, path=file, source=source,
                lines=source.splitlines(), tree=tree)
    return index, findings


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------
@dataclass
class Suppression:
    finding: Finding
    reason: str


@dataclass
class LintReport:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Suppression] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "modules_scanned": self.modules_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [{**s.finding.to_dict(), "suppress_reason":
                            s.reason} for s in self.suppressed],
        }


def _apply_suppressions(findings: List[Finding], index: ModuleIndex
                        ) -> Tuple[List[Finding], List[Suppression]]:
    kept: List[Finding] = []
    suppressed: List[Suppression] = []
    for finding in findings:
        info = index.get(finding.path)
        line_text = ""
        if info is not None and 1 <= finding.line <= len(info.lines):
            line_text = info.lines[finding.line - 1]
        parsed = parse_suppression(line_text)
        if parsed is not None and parsed[0] == finding.rule:
            suppressed.append(Suppression(finding, parsed[1]))
        else:
            kept.append(finding)
    return kept, suppressed


def _malformed_markers(index: ModuleIndex,
                       scan: Sequence[str]) -> List[Finding]:
    """X01 for ``ok(`` markers that don't parse anywhere in the scan
    set."""
    findings = []
    for info in index.under(scan):
        for lineno, text in enumerate(info.lines, start=1):
            if has_bare_suppression(text):
                findings.append(Finding(
                    "X01", info.relpath, lineno,
                    "malformed suppression marker (expected "
                    "`# lint: ok(RULE: reason)`)",
                    "add the rule id and a non-empty reason"))
    return findings


def run_lint(config: LintConfig) -> LintReport:
    """Run every rule over one shared tree walk."""
    index, findings = build_index(config)
    # imported here so the rule module can use engine helpers freely
    from . import determinism
    findings.extend(determinism.check(config, index))
    findings.extend(_malformed_markers(index, config.scan_paths))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    kept, suppressed = _apply_suppressions(findings, index)
    return LintReport(findings=kept, suppressed=suppressed,
                      modules_scanned=len(index.modules))
