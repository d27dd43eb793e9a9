"""Rule family D: sources of run-to-run nondeterminism.

Scans the result-producing modules (``scan_paths`` in the
configuration) for the classic ways bit-identity dies:

* **D01** — randomness from interpreter-global state: module-level
  ``random.*`` draws, legacy ``np.random.*`` draws, and zero-argument
  ``Random()`` / ``default_rng()`` / ``PCG64()`` constructions.  All
  simulation randomness must flow from a seeded generator.  Flagged at
  the draw/construction site — the hazard is the call itself.
* **D02** — wall-clock reads (``time.time``/``perf_counter``/
  ``monotonic``, ``datetime.now``); these belong in ``benchmarks/``.
* **D03** — iteration whose order the platform picks.  Dataflow-aware
  since v2: the :mod:`~repro.lint.dataflow` lattice tracks set/
  listing-tainted values through assignment chains, transparent
  wrappers (``list``/``tuple``/``enumerate``/``reversed``/``iter``),
  comprehensions, dict views, set algebra, container mutation, and one
  level of same-module helper returns — so ``pending = set(x); for p
  in pending:`` is caught, not just the literal ``for p in set(x):``.
  ``sorted(...)`` clears the taint.
* **D04** — ordering by ``id()`` (allocation address): ``key=id`` or a
  ``key=lambda`` calling ``id()`` in ``sorted``/``sort``/``min``/
  ``max``.
* **D05** — a tainted value (set/listing *or* RNG/wall-clock) reaching
  a key or serialization sink: ``cache_key``/``lockstep_key`` calls,
  ``json.dumps``/``json.dump``, ``hashlib`` digests, and the SSE
  encoder ``format_event``.  Set order inside a cache key means the
  same config hashes differently between runs — cache misses at best,
  colliding entries at worst.
* **D06** — an observability-layer value (anything out of an ``obs.*``
  call: span timings, counters, receipts) reaching ``cache_key`` or
  ``lockstep_key``.  Obs values are *allowed* on wire/hash sinks in
  general — receipts are serialized and hashed by design — but they
  must never influence content addresses or batch grouping, or the
  ``REPRO_OBS`` kill switch would change results.

D01/D02 stay call-site rules on purpose: a global-state draw in
result-producing code is a hazard whether or not the value provably
reaches a sink this release.  Their *values* still feed the taint
lattice, so one that lands in a cache key is additionally a D05.

Modules named in ``LintConfig.wallclock_modules`` (the observability
package) are exempt from D02, and from D05 findings whose taint is the
wall clock alone — module-scoped, because per-line suppressions in a
package whose whole job is timing would bury real findings.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from .config import LintConfig
from .dataflow import (_CLOCK_CALLS, _LISTING_METHODS, _RANDOM_DRAWS,
                       _SEEDABLE_CTORS, ALL_TAGS, ORDER_TAGS, TAG_LISTING,
                       TAG_OBS, TAG_RNG, TAG_SET, TAG_TIME, FunctionFlow,
                       dataflow_for, own_exprs)
from .engine import ModuleIndex, ModuleInfo, dotted_name
from .findings import Finding

#: draws on the module-level random module, plus its global-state reseed
_GLOBAL_RANDOM_CALLS = _RANDOM_DRAWS | {"seed"}

#: legacy numpy global-state RNG surface
_NP_RANDOM_DRAWS = frozenset({
    "random", "rand", "randn", "randint", "random_sample",
    "standard_normal", "normal", "uniform", "choice", "shuffle",
    "permutation", "seed",
})

_HASH_CTORS = frozenset({"sha256", "sha1", "sha512", "md5", "blake2b",
                         "blake2s"})

_TAG_DESC = {
    TAG_SET: "set order",
    TAG_LISTING: "filesystem listing order",
    TAG_RNG: "an unseeded RNG value",
    TAG_TIME: "a wall-clock value",
    TAG_OBS: "an observability-layer value",
}

#: the cache-soundness key sinks rule D06 protects from obs taint
_KEY_SINKS = frozenset({"cache_key", "lockstep_key"})


def _ctor_unseeded(call: ast.Call, name: str) -> bool:
    return name in _SEEDABLE_CTORS and not call.args and not call.keywords


# ---------------------------------------------------------------------------
# D01 / D02 / D04: call-site rules (syntactic on purpose)
# ---------------------------------------------------------------------------
class _CallSiteVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo, allow_wallclock: bool = False):
        self.info = info
        #: module-scoped D02 exemption (``LintConfig.wallclock_modules``)
        self.allow_wallclock = allow_wallclock
        self.findings: List[Finding] = []
        self.has_random_import = any(
            isinstance(node, ast.Import)
            and any(alias.name == "random" for alias in node.names)
            for node in ast.walk(info.tree))

    def _emit(self, rule: str, node: ast.AST, message: str,
              hint: str) -> None:
        self.findings.append(Finding(rule, self.info.relpath,
                                     getattr(node, "lineno", 1), message,
                                     hint))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (self.has_random_import and len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _GLOBAL_RANDOM_CALLS):
                self._emit("D01", node,
                           f"module-level RNG call {dotted}() draws from "
                           "interpreter-global state",
                           "draw from a seeded generator (Simulator.rng "
                           "or random.Random(seed)) instead")
            elif (len(parts) >= 3 and parts[0] in ("np", "numpy")
                    and parts[1] == "random"):
                tail = parts[2]
                if len(parts) == 3 and tail in _NP_RANDOM_DRAWS:
                    self._emit("D01", node,
                               f"legacy global-state RNG call {dotted}()",
                               "use np.random.Generator(np.random."
                               "PCG64(seed)) and draw from it")
                elif len(parts) == 3 and _ctor_unseeded(node, tail):
                    self._emit("D01", node,
                               f"{dotted}() constructed without a seed",
                               "pass an explicit seed (or SeedSequence)")
            elif dotted in _CLOCK_CALLS:
                if not self.allow_wallclock:
                    self._emit("D02", node,
                               f"wall-clock read {dotted}() in simulation "
                               "code",
                               "move timing to benchmarks/, or derive time "
                               "from the simulator clock")
            elif (parts[-1] in ("now", "utcnow", "today")
                    and ("datetime" in parts[:-1] or "date" in parts[:-1])):
                if not self.allow_wallclock:
                    self._emit("D02", node,
                               f"wall-clock read {dotted}() in simulation "
                               "code",
                               "pass timestamps in explicitly; simulation "
                               "output must not depend on the wall clock")
        elif isinstance(node.func, ast.Name) \
                and _ctor_unseeded(node, node.func.id):
            self._emit("D01", node,
                       f"{node.func.id}() constructed without a seed",
                       "pass an explicit seed (or SeedSequence)")
        self._check_id_ordering(node)
        self.generic_visit(node)

    def _check_id_ordering(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name not in ("sorted", "sort", "min", "max"):
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            key = kw.value
            uses_id = (isinstance(key, ast.Name) and key.id == "id") or (
                isinstance(key, ast.Lambda) and any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(key.body)))
            if uses_id:
                self._emit("D04", node,
                           f"{name}(..., key=id) orders by allocation "
                           "address — different every run",
                           "order by a stable attribute (name, sequence "
                           "number) instead of id()")


# ---------------------------------------------------------------------------
# D03 / D05: dataflow sinks
# ---------------------------------------------------------------------------
def _describe(expr: ast.expr, tags: FrozenSet[str], flow: FunctionFlow,
              node_index: int) -> str:
    """Human description of why ``expr`` is unordered/nondeterministic."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if func.id in ("list", "tuple", "enumerate", "reversed",
                           "iter") and expr.args:
                return _describe(expr.args[0], tags, flow, node_index)
        if isinstance(func, ast.Attribute):
            if func.attr in _LISTING_METHODS:
                return f".{func.attr}(...) (filesystem order)"
            if func.attr in ("union", "intersection", "difference",
                            "symmetric_difference"):
                return f"a set-algebra result (.{func.attr}())"
    if isinstance(expr, ast.Name):
        born = sorted({d.lineno for d in flow.defs_of(node_index, expr.id)
                       if d.value is not None})
        where = f" (defined at line {', '.join(map(str, born))})" \
            if born else ""
        desc = ", ".join(sorted(_TAG_DESC[t] for t in tags))
        return f"{expr.id!r}, which carries {desc}{where}"
    desc = ", ".join(sorted(_TAG_DESC[t] for t in tags))
    return f"a value carrying {desc}"


def _sink_name(call: ast.Call) -> Optional[str]:
    """The D05 sink label for a call, or None."""
    func = call.func
    dotted = dotted_name(func)
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    if dotted in ("json.dumps", "json.dump"):
        return dotted
    if name in ("cache_key", "lockstep_key", "format_event"):
        return name
    if name in _HASH_CTORS and (dotted is None
                                or dotted.startswith("hashlib.")
                                or dotted == name):
        return f"hashlib.{name}" if name else None
    return None


class _DataflowChecker:
    def __init__(self, info: ModuleInfo, allow_wallclock: bool = False):
        self.info = info
        #: in wall-clock modules, D05 findings whose taint is the wall
        #: clock *alone* are expected (timing is those modules' job);
        #: any other taint still fires
        self.allow_wallclock = allow_wallclock
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for unit, flow in dataflow_for(self.info).flows():
            for node in flow.nodes:
                env = flow.env_in[node.index]
                stmt = node.stmt
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    self._check_iter(stmt.iter, flow, node.index, env)
                for expr in own_exprs(stmt):
                    for sub in ast.walk(expr):
                        if isinstance(sub, (ast.ListComp, ast.SetComp,
                                            ast.DictComp,
                                            ast.GeneratorExp)):
                            for gen in sub.generators:
                                self._check_iter(gen.iter, flow,
                                                 node.index, env)
                        elif isinstance(sub, ast.Call):
                            self._check_sink(sub, flow, node.index, env)
        return self.findings

    def _check_iter(self, iter_expr: ast.expr, flow: FunctionFlow,
                    node_index: int, env: Dict[str, FrozenSet[str]]
                    ) -> None:
        if isinstance(iter_expr, (ast.List, ast.Tuple, ast.Dict)):
            # the literal's own iteration order is deterministic even
            # when its *elements* are tainted (those are D05's problem)
            return
        tags = flow.eval_tags(iter_expr, env) & ORDER_TAGS
        if not tags:
            return
        what = _describe(iter_expr, tags, flow, node_index)
        self.findings.append(Finding(
            "D03", self.info.relpath, iter_expr.lineno,
            f"iteration over {what} — order is platform-dependent",
            "wrap the iterable in sorted(...) to pin the order"))

    def _check_sink(self, call: ast.Call, flow: FunctionFlow,
                    node_index: int, env: Dict[str, FrozenSet[str]]
                    ) -> None:
        sink = _sink_name(call)
        if sink is None:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords
                                      if kw.arg != "sort_keys"]:
            raw = flow.eval_tags(arg, env)
            if sink in _KEY_SINKS and TAG_OBS in raw:
                what = _describe(arg, frozenset({TAG_OBS}), flow,
                                 node_index)
                self.findings.append(Finding(
                    "D06", self.info.relpath, call.lineno,
                    f"observability value flowing into {sink}(): {what}",
                    "keys must be derived from configs and code only; "
                    "obs timings/counters may never influence cache or "
                    "lock-step identity"))
            tags = raw & ALL_TAGS
            if self.allow_wallclock:
                tags -= {TAG_TIME}
            if not tags:
                continue
            what = _describe(arg, tags, flow, node_index)
            self.findings.append(Finding(
                "D05", self.info.relpath, call.lineno,
                f"nondeterministic value flowing into {sink}(): {what}",
                "sort/canonicalize the value before it reaches the "
                "key or wire encoder"))


def _in_wallclock_module(relpath: str, config: LintConfig) -> bool:
    """True when ``relpath`` lives under one of the configured
    wall-clock modules (a package directory or a module file)."""
    for mod in config.wallclock_modules:
        if relpath == mod or relpath.startswith(mod.rstrip("/") + "/"):
            return True
    return False


def check(config: LintConfig, index: ModuleIndex) -> List[Finding]:
    findings: List[Finding] = []
    for info in index.under(config.scan_paths):
        allow = _in_wallclock_module(info.relpath, config)
        visitor = _CallSiteVisitor(info, allow_wallclock=allow)
        visitor.visit(info.tree)
        findings.extend(visitor.findings)
        findings.extend(_DataflowChecker(info, allow_wallclock=allow).run())
    return findings
