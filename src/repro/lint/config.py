"""Analyzer configuration and the in-source annotation format.

Two comment annotations are recognised, both requiring a reason so the
allowlist stays self-documenting:

``# lint: nokey(field[, field...]: reason)``
    Placed inside a key function's body (``cache_key`` or
    ``lockstep_key``); declares that the named SystemConfig fields are
    *intentionally* not part of that key.  The key-completeness rules
    treat annotated fields as accounted for; a stale annotation (field
    gone, or actually consumed) is itself a finding (K06).

``# lint: ok(RULE: reason)``
    Placed on the exact line of a finding; suppresses that one finding.
    Suppressions are counted and carried in the JSON report, never
    silently dropped.

``# lint: guarded_by(self._lock: reason)``
    Placed on an attribute-initializing assignment (``self._events =
    []`` in ``__init__``); declares that every later read/write of that
    attribute must happen while ``with self._lock:`` is held (rule
    L01).  The lock is named as the access expression used at the use
    sites — ``self._lock``, ``self._cond``, or the factory form
    ``self._writer_lock()``.

:class:`LintConfig` names every repo-specific anchor (which module holds
the config dataclass, which functions are the keys, which callables are
gating roots, where the lockfiles live) so the test suite can point the
same rules at miniature fixture trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: paired scalar/vector callables kept bit-identical op-for-op.  Each
#: member is ``(module relpath, qualname)``; qualnames are ``Class.
#: method`` or a module-level function name.  Editing one member without
#: the other trips P01; editing both without refreshing the lockfile
#: trips P02 (`python -m repro.lint --update-locks` is the ack).
DEFAULT_PARITY_PAIRS: Tuple[Tuple[str, Tuple[str, str], Tuple[str, str]],
                            ...] = (
    ("power-stage-step",
     ("analog/buck.py", "MultiphasePowerStage.step"),
     ("scenarios/vector_stage.py", "VectorizedPowerStage.step")),
    ("stage-derivatives",
     ("analog/buck.py", "MultiphasePowerStage._derivatives"),
     ("scenarios/vector_stage.py", "VectorizedPowerStage._derivatives")),
    ("crossing-bound",
     ("analog/solver.py", "AnalogSolver.crossing_bound"),
     ("scenarios/vector_solver.py", "VectorizedSolver.lane_crossing_bound")),
    ("crossing-cap",
     ("analog/solver.py", "AnalogSolver._crossing_cap"),
     ("scenarios/vector_solver.py", "VectorizedSolver._crossing_caps")),
    ("adaptive-plan",
     ("analog/solver.py", "AnalogSolver._plan"),
     ("scenarios/vector_solver.py", "VectorizedSolver._advance_adaptive")),
    ("adaptive-commit",
     ("analog/solver.py", "AnalogSolver._commit"),
     ("scenarios/vector_solver.py", "VectorizedSolver._advance_adaptive")),
    ("note-commutation",
     ("analog/solver.py", "AnalogSolver.note_commutation"),
     ("scenarios/vector_solver.py", "VectorizedSolver.note_commutation")),
    ("fixed-tick",
     ("analog/solver.py", "AnalogSolver._tick"),
     ("scenarios/vector_solver.py", "VectorizedSolver._make_fixed_tick")),
    ("gating-entry",
     ("control/sync_controller.py", "SyncMultiphaseController._step_phase"),
     ("control/sync_controller.py", "SyncMultiphaseController._maybe_gate")),
    ("clock-replay",
     ("digital/clock.py", "Clock._rise"),
     ("digital/clock.py", "Clock.fast_forward")),
)

#: entry points of the clock-gating machinery; everything directly
#: callable from them must stay free of RNG draws and dispatching
#: signal writes (rules G01/G02).
DEFAULT_GATING_ROOTS: Tuple[Tuple[str, str], ...] = (
    ("digital/clock.py", "Clock.suspend"),
    ("digital/clock.py", "Clock.fast_forward"),
    ("control/sync_controller.py", "SyncMultiphaseController._maybe_gate"),
    ("control/sync_controller.py", "SyncMultiphaseController._resume"),
    ("control/sync_controller.py", "SyncMultiphaseController._on_wake_edge"),
    ("control/sync_controller.py", "SyncMultiphaseController._on_act_edge"),
    ("control/sync_controller.py", "SyncMultiphaseController._on_wake_timer"),
    ("analog/solver.py", "AnalogSolver.crossing_bound"),
    ("scenarios/vector_solver.py", "VectorizedSolver.lane_crossing_bound"),
)


@dataclass(frozen=True)
class LintConfig:
    """Everything repo-specific the rules need, overridable for tests."""

    #: package source root (the directory containing ``system.py``)
    root: Path = Path(".")
    #: module paths below, all relative to ``root``
    config_module: str = "system.py"
    config_class: str = "SystemConfig"
    result_class: str = "RunResult"
    policy_module: str = "analog/stepping.py"
    policy_class: str = "SteppingPolicy"
    #: maps a policy field to the config field it is derived from when
    #: the names differ (SteppingPolicy.mode <- SystemConfig.stepping)
    policy_field_aliases: Dict[str, str] = field(
        default_factory=lambda: {"mode": "stepping"})
    cache_module: str = "session/cache.py"
    cache_key_func: str = "cache_key"
    format_version_name: str = "FORMAT_VERSION"
    float_fields_name: str = "_FLOAT_FIELDS"
    int_fields_name: str = "_INT_FIELDS"
    #: RunResult fields legitimately outside the numeric payload lists
    #: (serialized separately by the cache layer)
    result_nonnumeric_fields: Tuple[str, ...] = ("controller", "cycles",
                                                 "trace")
    lockstep_module: str = "scenarios/parallel.py"
    lockstep_key_func: str = "lockstep_key"
    #: directories/files (relative to root) scanned by the determinism
    #: and purity families — the result-producing modules
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
    parity_pairs: Tuple[Tuple[str, Tuple[str, str], Tuple[str, str]], ...] \
        = DEFAULT_PARITY_PAIRS
    gating_roots: Tuple[Tuple[str, str], ...] = DEFAULT_GATING_ROOTS
    #: modules whose JSON/SSE dict literals are the *server-side* wire
    #: surface (every dict literal with a constant "event" key, plus
    #: literals passed to the handler's ``_json``)
    wire_emit_modules: Tuple[str, ...] = ("serve/jobs.py", "serve/sse.py",
                                          "serve/server.py")
    #: named functions whose return dict literals / subscript stores are
    #: also server emissions: ``(module, qualname)``
    wire_emit_functions: Tuple[Tuple[str, str], ...] = (
        ("serve/jobs.py", "Job.snapshot"),)
    #: modules whose constant-key subscript loads / ``.get()`` calls are
    #: the *client-side* reads
    wire_reader_modules: Tuple[str, ...] = ("serve/client.py",)
    #: the submission direction: the client-side encoder (its constant
    #: subscript stores are fields the client sends) and the
    #: server-side decoder (its reads + known-field set literal)
    wire_submit_encoder: Tuple[str, str] = ("serve/protocol.py",
                                            "job_request")
    wire_submit_decoder: Tuple[str, str] = ("serve/protocol.py",
                                            "decode_job")
    #: directory holding parity_lock.json / format_lock.json
    locks_dir: Path = Path("tests/golden")

    @property
    def parity_lock_path(self) -> Path:
        return Path(self.locks_dir) / "parity_lock.json"

    @property
    def format_lock_path(self) -> Path:
        return Path(self.locks_dir) / "format_lock.json"

    @property
    def wire_lock_path(self) -> Path:
        return Path(self.locks_dir) / "wire_lock.json"

    def with_root(self, root: Path) -> "LintConfig":
        return replace(self, root=Path(root))


def default_config_for(path: Path) -> LintConfig:
    """Resolve a CLI path argument into a :class:`LintConfig`.

    Accepts the package root itself (``.../repro``), a ``src`` directory
    containing it, or a repo root containing ``src/repro``.  The
    lockfiles are looked up in ``<repo>/tests/golden`` when that layout
    is recognisable, falling back to a ``tests/golden`` sibling of the
    package's parent.
    """
    path = Path(path).resolve()
    for candidate in (path, path / "repro", path / "src" / "repro"):
        if (candidate / "system.py").is_file():
            root = candidate
            break
    else:
        raise FileNotFoundError(
            f"no repro package (system.py) found under {path}")
    # <repo>/src/repro -> <repo>/tests/golden
    repo = root.parent.parent if root.parent.name == "src" else root.parent
    return LintConfig(root=root, locks_dir=repo / "tests" / "golden")


# ---------------------------------------------------------------------------
# Annotation parsing
# ---------------------------------------------------------------------------
_NOKEY_RE = re.compile(
    r"#\s*lint:\s*nokey\(\s*([A-Za-z_][A-Za-z0-9_,\s]*?)\s*:\s*(.+)\)\s*$")
_NOKEY_BARE_RE = re.compile(r"#\s*lint:\s*nokey\(")
_OK_RE = re.compile(
    r"#\s*lint:\s*ok\(\s*([A-Za-z]\d+)\s*:\s*(.+)\)\s*$")
_OK_BARE_RE = re.compile(r"#\s*lint:\s*ok\(")


@dataclass(frozen=True)
class NokeyEntry:
    """One parsed ``nokey`` annotation line."""

    fields: Tuple[str, ...]
    reason: str
    line: int


def parse_nokey(lines: Sequence[str], start: int, end: int
                ) -> Tuple[List[NokeyEntry], List[int]]:
    """Collect ``nokey`` annotations on lines ``start..end`` (1-based,
    inclusive).  Returns ``(entries, malformed_line_numbers)`` —
    malformed means the marker is present but fields/reason don't parse.
    """
    entries: List[NokeyEntry] = []
    malformed: List[int] = []
    for lineno in range(start, min(end, len(lines)) + 1):
        text = lines[lineno - 1]
        match = _NOKEY_RE.search(text)
        if match:
            fields = tuple(f.strip() for f in match.group(1).split(",")
                           if f.strip())
            reason = match.group(2).strip()
            if fields and reason:
                entries.append(NokeyEntry(fields, reason, lineno))
            else:
                malformed.append(lineno)
        elif _NOKEY_BARE_RE.search(text):
            malformed.append(lineno)
    return entries, malformed


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


_GUARD_RE = re.compile(
    r"#\s*lint:\s*guarded_by\(\s*([A-Za-z_][A-Za-z0-9_.]*(?:\(\))?)"
    r"\s*:\s*(.+)\)\s*$")
_GUARD_BARE_RE = re.compile(r"#\s*lint:\s*guarded_by\(")


def parse_guarded_by(line_text: str) -> Optional[Tuple[str, str]]:
    """``(lock_expr, reason)`` if the line carries a well-formed
    ``# lint: guarded_by(self._lock: reason)`` marker, else ``None``."""
    match = _GUARD_RE.search(line_text)
    if match:
        return match.group(1), match.group(2).strip()
    return None


def has_bare_guard(line_text: str) -> bool:
    """The ``guarded_by(`` marker is present but doesn't parse."""
    return bool(_GUARD_BARE_RE.search(line_text)) \
        and parse_guarded_by(line_text) is None
