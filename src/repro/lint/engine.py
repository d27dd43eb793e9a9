"""The analyzer runner: one tree walk, rules as visitor plugins.

:func:`build_index` parses every configured module exactly once into a
:class:`ModuleIndex`; each rule family consumes the shared index (no
rule re-reads or re-parses source).  :func:`run_lint` dispatches the
requested families, applies ``# lint: ok(RULE: reason)`` suppressions,
and returns a :class:`LintReport` with deterministic finding order.

Also home to the lockfile plumbing: :func:`update_locks` regenerates
``tests/golden/format_lock.json`` — the explicit ack for an intentional
serialization-format bump.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .config import LintConfig, has_bare_suppression, parse_suppression
from .findings import FAMILIES, Finding


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
    wanted = set(config.scan_paths)
    wanted.update((config.config_module, config.cache_module))
    for entry in sorted(wanted):
        path = root / entry
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            # a missing module that a rule family anchors on is that
            # family's finding (X00 with context); only a missing
            # *scan* path is an engine-level error
            if entry in config.scan_paths:
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
def find_def(tree: ast.Module, qualname: str):
    """The FunctionDef/AsyncFunctionDef for ``qualname`` (``Class.
    method``, possibly nested classes, or a module-level name)."""
    parts = qualname.split(".")
    scope: ast.AST = tree
    for part in parts:
        found = None
        for node in getattr(scope, "body", []):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == part:
                found = node
                break
        if found is None:
            return None
        scope = found
    return scope if isinstance(scope, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) else None


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def node_fingerprint(node: ast.AST) -> str:
    """Digest of one def's behaviour-relevant AST (16 hex chars).

    Same normalization as the cache layer's ``module_fingerprint``:
    docstrings are stripped, positions are excluded, so comment/
    docstring/formatting edits keep the fingerprint while any real code
    change moves it.
    """
    clone = copy.deepcopy(node)
    for sub in ast.walk(clone):
        if not isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
            continue
        body = sub.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            del body[0]
    payload = ast.dump(clone, include_attributes=False).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


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
    families: Tuple[str, ...] = FAMILIES

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "modules_scanned": self.modules_scanned,
            "families": list(self.families),
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


def run_lint(config: LintConfig,
             families: Sequence[str] = FAMILIES) -> LintReport:
    """Run the requested rule families over one shared tree walk."""
    index, findings = build_index(config)
    # imported here so the rule modules can use engine helpers freely
    from . import determinism, keys, locks
    runners = {
        "keys": keys.check,
        "determinism": determinism.check,
        "locks": locks.check,
    }
    for family in families:
        findings.extend(runners[family](config, index))
    findings.extend(_malformed_markers(index, config.scan_paths))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    kept, suppressed = _apply_suppressions(findings, index)
    return LintReport(findings=kept, suppressed=suppressed,
                      modules_scanned=len(index.modules),
                      families=tuple(families))


# ---------------------------------------------------------------------------
# Lockfiles
# ---------------------------------------------------------------------------
def read_lock(path: Path) -> Optional[Dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_lock(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def update_locks(config: LintConfig) -> Dict[str, str]:
    """Regenerate the format lockfile from the current tree (the
    explicit ack for format bumps).  Returns a summary of what was
    written."""
    index, findings = build_index(config)
    hard = [f for f in findings if f.rule == "X00"]
    if hard:
        raise RuntimeError("cannot update locks: " + hard[0].render())
    from . import keys
    write_lock(config.format_lock_path, keys.lock_payload(config, index))
    return {"format_lock": str(config.format_lock_path)}
