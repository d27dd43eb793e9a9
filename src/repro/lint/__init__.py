"""Static analyzer for the repo's bit-identity invariants.

Three rule families, each machine-checking a convention the reproduction
otherwise enforces by reviewer discipline:

``keys`` (K03)
    ``RunResult``'s serialized shape is pinned to ``FORMAT_VERSION`` via
    ``tests/golden/format_lock.json``.  The cache and lock-step key field
    sets and the cache payload columns are derived in code, so they need
    no rule.

``determinism`` (D01–D06)
    No unseeded RNG, wall-clock reads, unordered iteration, or
    ``id()``-based ordering in result-producing modules, and no such
    value (nor any observability value) reaching a cache key.

``locks`` (L01–L03)
    ``guarded_by`` attributes are touched only under their lock, locks
    are taken in one global order, and nothing blocks while holding one.

Run ``python -m repro.lint`` (see ``--help``); suppress one finding
with ``# lint: ok(RULE: reason)`` on its line; ack an intentional
format bump with ``--update-locks``.
"""

from .config import LintConfig, default_config_for
from .engine import LintReport, build_index, run_lint, update_locks
from .findings import FAMILIES, RULES, Finding, explain

__all__ = [
    "LintConfig", "default_config_for", "LintReport", "build_index",
    "run_lint", "update_locks", "FAMILIES", "RULES", "Finding", "explain",
]
