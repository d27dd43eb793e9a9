"""Static analyzer for the repo's bit-identity invariants.

Two rule families, each machine-checking a convention the reproduction
otherwise enforces by reviewer discipline:

``determinism`` (D01–D06)
    No unseeded RNG, wall-clock reads, unordered iteration, or
    ``id()``-based ordering in result-producing modules, and no such
    value (nor any observability value) reaching a cache key.

``locks`` (L01–L03)
    ``guarded_by`` attributes are touched only under their lock, locks
    are taken in one global order, and nothing blocks while holding one.

Run ``python -m repro.lint`` (see ``--help``); suppress one finding
with ``# lint: ok(RULE: reason)`` on its line.

The field sets around the result cache need no rule: the cache and
lock-step keys and the cache's ``result`` members are derived in code,
and an entry whose stored layout differs from ``RunResult``'s reads as
a miss.
"""

from .config import LintConfig, default_config_for
from .engine import LintReport, build_index, run_lint
from .findings import FAMILIES, RULES, Finding, explain

__all__ = [
    "LintConfig", "default_config_for", "LintReport", "build_index",
    "run_lint", "FAMILIES", "RULES", "Finding", "explain",
]
