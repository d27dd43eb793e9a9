"""Rule family K: the serialization-format lock (K03).

``RunResult``'s field list and ``to_dict`` fingerprint are pinned,
together with ``FORMAT_VERSION``, in ``tests/golden/format_lock.json``.
Changing the layout without bumping the version would let an entry
written under the old layout — fetched by an old key, e.g. through
``GET /v1/results/<key>`` — decode into a wrong-shaped result.  The lock
makes each bump an explicit ack (``python -m repro.lint --update-locks``).

The other cache-soundness invariants are structural, so no rule guards
them: ``cache_key`` bulk-encodes every ``SystemConfig`` field (only
``trace`` is normalised out), ``lockstep_key`` keys every field outside
``PER_LANE_FIELDS``, and the cache sidecar's ``result`` members are
derived from ``RunResult``'s annotations.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from .config import LintConfig
from .engine import (ModuleIndex, find_class, find_def, node_fingerprint,
                     read_lock)
from .findings import Finding


def _field_names(cls: ast.ClassDef) -> List[str]:
    """Dataclass field names in declaration order (annotated assignments
    at class-body level)."""
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)]


def _format_version(index: ModuleIndex, config: LintConfig) -> Optional[int]:
    info = index.get(config.cache_module)
    if info is None:
        return None
    for node in info.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id == config.format_version_name \
                        and isinstance(node.value, ast.Constant):
                    return node.value.value
    return None


def lock_payload(config: LintConfig, index: ModuleIndex) -> Dict:
    """Current serialization-format lock content (K03's baseline)."""
    info = index.get(config.config_module)
    cls = find_class(info.tree, config.result_class) if info else None
    to_dict = find_def(info.tree, f"{config.result_class}.to_dict") \
        if info else None
    return {
        "format_version": _format_version(index, config),
        "runresult_fields": _field_names(cls) if cls else [],
        "to_dict_hash": node_fingerprint(to_dict) if to_dict else None,
    }


def check(config: LintConfig, index: ModuleIndex) -> List[Finding]:
    """K03: the result layout moved without a ``FORMAT_VERSION`` bump,
    or the lock is stale or missing."""
    info = index.get(config.config_module)
    if info is None:
        return [Finding("X00", config.config_module, 1,
                        "config module not in the index",
                        "fix the lint configuration")]
    cls = find_class(info.tree, config.result_class)
    if cls is None:
        return [Finding("X00", info.relpath, 1,
                        f"class {config.result_class!r} not found",
                        "fix the lint configuration")]
    current = lock_payload(config, index)
    lock = read_lock(config.format_lock_path)
    if lock is None:
        return [Finding(
            "K03", info.relpath, cls.lineno,
            f"serialization format lock missing "
            f"({config.format_lock_path})",
            "generate it with `python -m repro.lint --update-locks`")]
    layout_moved = (
        current["runresult_fields"] != lock.get("runresult_fields")
        or current["to_dict_hash"] != lock.get("to_dict_hash"))
    version_moved = current["format_version"] != lock.get("format_version")
    if layout_moved and not version_moved:
        return [Finding(
            "K03", info.relpath, cls.lineno,
            f"{config.result_class} serialization changed but "
            f"{config.format_version_name} did not "
            f"(still {current['format_version']})",
            f"bump {config.format_version_name} in "
            f"{config.cache_module}, then run "
            "`python -m repro.lint --update-locks`")]
    if layout_moved or version_moved:
        return [Finding(
            "K03", info.relpath, cls.lineno,
            "serialization format lock is stale "
            f"(lock has version {lock.get('format_version')}, tree has "
            f"{current['format_version']})",
            "ack the change with `python -m repro.lint --update-locks`")]
    return []
