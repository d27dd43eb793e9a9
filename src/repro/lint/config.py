"""Analyzer configuration and the in-source suppression format.

``# lint: ok(RULE: reason)``, placed on the exact line of a finding,
suppresses that one finding.  The reason is required, so the exceptions
stay self-documenting; suppressions are counted and carried in the JSON
report, never silently dropped.

:class:`LintConfig` names every repo-specific anchor (the package root,
which modules are scanned, which ones may read the wall clock) so the
test suite can point the same rules at miniature fixture trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple


@dataclass(frozen=True)
class LintConfig:
    """Everything repo-specific the rules need, overridable for tests."""

    #: package source root (the directory containing ``system.py``)
    root: Path = Path(".")
    #: directories/files (relative to root) scanned by the rules — the
    #: result-producing modules
    scan_paths: Tuple[str, ...] = ("system.py", "sim", "analog", "digital",
                                   "a2a", "control", "scenarios", "session",
                                   "trace", "serve", "obs")
    #: modules (top-level package dirs or module files, relative to
    #: root) whose *job* is wall-clock measurement: D02 does not fire in
    #: them, and D05 findings whose taint is wall-clock alone are
    #: dropped there.  Module-scoped on purpose — per-line ``# lint:
    #: ok`` spam in an observability package would bury real findings.
    #: Rule D06 separately proves nothing observability-derived reaches
    #: the cache/lockstep keys.
    wallclock_modules: Tuple[str, ...] = ("obs",)


def default_config_for(path: Path) -> LintConfig:
    """Resolve a CLI path argument into a :class:`LintConfig`.

    Accepts the package root itself (``.../repro``), a ``src`` directory
    containing it, or a repo root containing ``src/repro``.
    """
    path = Path(path).resolve()
    for candidate in (path, path / "repro", path / "src" / "repro"):
        if (candidate / "system.py").is_file():
            root = candidate
            break
    else:
        raise FileNotFoundError(
            f"no repro package (system.py) found under {path}")
    return LintConfig(root=root)


# ---------------------------------------------------------------------------
# Suppression parsing
# ---------------------------------------------------------------------------
_OK_RE = re.compile(
    r"#\s*lint:\s*ok\(\s*([A-Za-z]\d+)\s*:\s*(.+)\)\s*$")
_OK_BARE_RE = re.compile(r"#\s*lint:\s*ok\(")


def parse_suppression(line_text: str) -> Optional[Tuple[str, str]]:
    """``(rule_id, reason)`` if the line carries a well-formed
    ``# lint: ok(RULE: reason)`` marker, else ``None``."""
    match = _OK_RE.search(line_text)
    if match:
        return match.group(1).upper(), match.group(2).strip()
    return None


def has_bare_suppression(line_text: str) -> bool:
    """The ``ok(`` marker is present but doesn't parse (X01 material)."""
    return bool(_OK_BARE_RE.search(line_text)) \
        and parse_suppression(line_text) is None

