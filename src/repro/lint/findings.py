"""Finding records and the rule catalog for :mod:`repro.lint`.

Every rule has a stable id (``D`` for determinism, or ``X`` for the
engine, plus a two-digit number), a one-line title, a longer
explanation, and a miniature *bad example* used by ``--explain`` and
``examples/lint_demo.py``.  A :class:`Finding` pins one violation to a
``file:line`` with the id and a one-line fix hint — everything a
reviewer (or CI log reader) needs to act without opening the linter's
source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source location."""

    rule: str          #: rule id, e.g. ``"D03"``
    path: str          #: path as reported (relative to the scanned root)
    line: int          #: 1-based line number
    message: str       #: what is wrong, naming the offending symbol
    hint: str          #: one-line fix hint

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}\n" \
               f"    hint: {self.hint}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "hint": self.hint}


@dataclass(frozen=True)
class Rule:
    """Catalog entry: what a rule checks and why it exists."""

    id: str
    family: str
    title: str
    rationale: str
    bad_example: str = ""


RULES: Dict[str, Rule] = {r.id: r for r in (
    Rule(
        "D01", "determinism",
        "Unseeded or global-state RNG",
        "All randomness must flow from a seeded generator (the kernel's "
        "Simulator.rng or an explicit PCG64(seed)).  Module-level "
        "random.* draws, legacy np.random.* draws, and zero-argument "
        "Random()/default_rng() constructions depend on interpreter-"
        "global state and break run-to-run bit-identity.",
        bad_example=(
            "import random\n"
            "jitter = random.gauss(0, 1)        # D01\n"
            "noise = np.random.standard_normal()  # D01\n"
            "rng = np.random.default_rng()       # D01 (no seed)\n"),
    ),
    Rule(
        "D02", "determinism",
        "Wall-clock time in simulation code",
        "time.time/perf_counter/monotonic and datetime.now belong in "
        "benchmarks/, never in result-producing modules — anything "
        "derived from them differs between runs by construction.  "
        "Modules whose *job* is timing (LintConfig.wallclock_modules, "
        "e.g. repro.obs) are exempt as a whole rather than via per-line "
        "suppressions; rule D06 separately walls their values off from "
        "the cache keys.",
        bad_example=(
            "import time\n"
            "t0 = time.perf_counter()   # D02 outside benchmarks/\n"),
    ),
    Rule(
        "D03", "determinism",
        "Iteration over an unordered collection or directory listing",
        "set/frozenset iteration order is hash-seed dependent and "
        "glob/iterdir/listdir order is filesystem dependent; either "
        "can flow into event scheduling or result assembly.  The check "
        "is dataflow-aware: the unordered value is tracked through "
        "assignments, list()/tuple()/enumerate() wrappers, "
        "comprehensions, dict views, and one level of helper returns, "
        "and flagged wherever it is iterated.  Wrap the iterable in "
        "sorted(...) to pin the order (sorted() clears the taint).",
        bad_example=(
            "for name in {\"a\", \"b\"}:          # D03\n"
            "    schedule(name)\n"
            "pending = set(work)\n"
            "queue = list(pending)\n"
            "for item in queue:                  # D03 (via dataflow)\n"
            "    schedule(item)\n"),
    ),
    Rule(
        "D04", "determinism",
        "id()-based ordering",
        "CPython object ids are allocation addresses: sorting or "
        "min/max-ing by id() gives a different order every run.  Use a "
        "stable key (a name, a sequence number) instead.",
        bad_example=(
            "listeners.sort(key=id)              # D04\n"
            "first = min(events, key=lambda e: id(e))  # D04\n"),
    ),
    Rule(
        "D05", "determinism",
        "Nondeterministic value flowing into a cache key or wire encoder",
        "A value carrying set/listing/RNG/wall-clock taint that reaches "
        "cache_key/lockstep_key, json.dumps, a hashlib digest, or the "
        "SSE encoder makes the content address or wire payload differ "
        "between bit-identical runs — cache misses at best, silent "
        "entry collisions at worst.  Sort (or otherwise canonicalize) "
        "the value before it reaches the key.",
        bad_example=(
            "tags = set(encoded)            # unordered\n"
            "payload[\"fields\"] = list(tags)\n"
            "json.dumps(payload)            # D05: set order in the key\n"),
    ),
    Rule(
        "D06", "determinism",
        "Observability value flowing into a cache or lock-step key",
        "Anything produced by the obs layer (span timings, counters, "
        "receipts — every obs.* call) is measurement, not identity: if "
        "it reaches cache_key or lockstep_key, toggling REPRO_OBS (or "
        "mere timing jitter) changes content addresses and batch "
        "grouping, breaking the bit-identity contract the differential "
        "tests lock.  Keys are derived from configs and code "
        "fingerprints only.",
        bad_example=(
            "stamp = obs.now()\n"
            "key = cache_key(cfg, settle, backend, energy, stamp)  "
            "# D06\n"),
    ),
    Rule(
        "X00", "engine",
        "Analyzer configuration error",
        "A path the lint configuration points at is missing, or a "
        "module under it does not parse.  The analyzer fails loudly rather "
        "than silently skipping the check.",
    ),
    Rule(
        "X01", "engine",
        "Malformed lint annotation",
        "A `# lint: ok(...)` comment does not parse or is missing its "
        "reason.  Annotations are evidence; an unreadable one suppresses "
        "nothing.",
        bad_example=(
            "# lint: ok(D03)    <- X01: no reason given\n"),
    ),
)}


def explain(rule_id: str) -> Optional[str]:
    """Human-readable catalog entry for ``--explain`` (None if unknown)."""
    rule = RULES.get(rule_id.upper())
    if rule is None:
        return None
    parts = [f"{rule.id} [{rule.family}] {rule.title}", "", rule.rationale]
    if rule.bad_example:
        parts += ["", "Example that fires it:", ""]
        parts += ["    " + ln for ln in rule.bad_example.rstrip().splitlines()]
    return "\n".join(parts)


def rule_ids() -> Tuple[str, ...]:
    return tuple(sorted(RULES))
