"""Static analyzer for the repo's bit-identity invariants.

The determinism rules (D01–D06) machine-check a convention the
reproduction otherwise enforces by reviewer discipline: no unseeded
RNG, wall-clock reads, unordered iteration, or ``id()``-based ordering
in result-producing modules, and no such value (nor any observability
value) reaching a cache key.

Run ``python -m repro.lint`` (see ``--help``); suppress one finding
with ``# lint: ok(RULE: reason)`` on its line.

The field sets around the result cache need no rule: the cache and
lock-step keys and the cache's ``result`` members are derived in code,
and an entry whose stored layout differs from ``RunResult``'s reads as
a miss.  Neither does lock discipline: every lock is a one-lock leaf
class, a shape ``tests/test_lock_structure.py`` pins.
"""

from .config import LintConfig, default_config_for
from .engine import LintReport, build_index, run_lint
from .findings import RULES, Finding, explain

__all__ = [
    "LintConfig", "default_config_for", "LintReport", "build_index",
    "run_lint", "RULES", "Finding", "explain",
]
