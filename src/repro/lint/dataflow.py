"""Intra-procedural dataflow core of the determinism rules.

One :class:`FunctionFlow` per code unit (module top level, each
function/method) built from three classic pieces:

* a statement-level **control-flow graph** — one node per simple
  statement or compound-statement header, with branch/loop/try edges
  approximated conservatively (every try-body statement may reach every
  handler);
* **reaching definitions** — a forward may-analysis over the CFG
  (gen/kill worklist), exposed as def-use chains so rules can name the
  line a value was born on;
* a small **abstract-value lattice**: every name maps to a set of taint
  tags (:data:`TAG_SET`, :data:`TAG_LISTING`, :data:`TAG_RNG`,
  :data:`TAG_TIME`) joined by set union, computed to a fixpoint so tags
  survive loops, reassignment chains, transparent wrappers
  (``list``/``tuple``/``enumerate``/``reversed``/``iter``),
  comprehensions, set algebra, dict views, and container mutation
  (``d[k] = tainted`` taints ``d``; ``x.extend(tainted)`` taints ``x``).
  ``sorted(...)`` is the sanitizer: its result always drops the
  ordering tags.

Helper-return **summaries** go one level deep: a same-module,
module-level function whose return expressions carry tags under an
empty environment contributes those tags at its call sites.

Everything here is rule-agnostic; ``determinism`` interprets the tags.
Analyses are cached per code unit on the
:class:`~repro.lint.engine.ModuleInfo`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .engine import ModuleInfo, dotted_name

# ---------------------------------------------------------------------------
# Taint tags
# ---------------------------------------------------------------------------
#: value came from a set literal/constructor/comprehension or set algebra
TAG_SET = "set-order"
#: value came from a directory listing (glob/iterdir/scandir/listdir)
TAG_LISTING = "fs-order"
#: value came from an unseeded / global-state RNG draw
TAG_RNG = "unseeded-rng"
#: value came from the wall clock
TAG_TIME = "wall-clock"
#: value came out of the observability layer (``obs.*`` calls) —
#: deliberately NOT in :data:`ALL_TAGS`: obs values are fine on wire
#: and hash sinks in general (receipts are hashed and serialized), but
#: rule D06 forbids them in ``cache_key``/``lockstep_key`` specifically
TAG_OBS = "obs-value"

#: tags whose hazard is *iteration order* (D03 sinks)
ORDER_TAGS = frozenset({TAG_SET, TAG_LISTING})
#: every tag is a hazard at a key/serialization sink (D05)
ALL_TAGS = frozenset({TAG_SET, TAG_LISTING, TAG_RNG, TAG_TIME})

_EMPTY: FrozenSet[str] = frozenset()

_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed",
                                   "iter"})
_LISTING_METHODS = frozenset({"glob", "rglob", "iglob", "iterdir",
                              "scandir", "listdir"})
_SET_ALGEBRA = frozenset({"union", "intersection", "difference",
                          "symmetric_difference"})
_VIEW_METHODS = frozenset({"keys", "values", "items", "copy"})
#: receiver-mutating methods that fold argument tags into the receiver
_MUTATORS = frozenset({"append", "extend", "add", "insert", "update",
                       "setdefault"})

# The call-name sets below are shared with determinism.py's rules.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
})
#: draws on the module-level random module
_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "expovariate", "choice", "choices", "shuffle", "sample", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "lognormvariate",
    "weibullvariate", "getrandbits",
})
#: constructors that are fine seeded, nondeterministic bare
_SEEDABLE_CTORS = frozenset({"Random", "default_rng", "PCG64",
                             "SeedSequence", "RandomState", "Generator"})

# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------
@dataclass
class Definition:
    """One binding of a local name."""

    name: str
    node: int                      #: CFG node index of the binding
    lineno: int
    value: Optional[ast.expr]      #: RHS expression when one exists
    kind: str                      #: assign/aug/mutate/for/with/param/...

    @property
    def kills(self) -> bool:
        # mutations and aug-assigns read the old value: they accumulate
        # tags instead of replacing the binding
        return self.kind not in ("mutate", "aug")


@dataclass
class CFGNode:
    """One simple statement or compound-statement header."""

    index: int
    stmt: ast.stmt
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    defs: List[Definition] = field(default_factory=list)


class _LoopCtx:
    def __init__(self, header: int):
        self.header = header
        self.breaks: List[int] = []


class _CFGBuilder:
    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.loops: List[_LoopCtx] = []

    def _new(self, stmt: ast.stmt, preds: Sequence[int]) -> int:
        node = CFGNode(index=len(self.nodes), stmt=stmt)
        node.defs = _defs_of(stmt, node.index)
        self.nodes.append(node)
        for pred in preds:
            self.nodes[pred].succs.append(node.index)
            node.preds.append(pred)
        return node.index

    def build(self, body: Sequence[ast.stmt], preds: List[int]) -> List[int]:
        """Thread ``body`` after ``preds``; returns the dangling exits."""
        for stmt in body:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            header = self._new(stmt, preds)
            exits = self.build(stmt.body, [header])
            if stmt.orelse:
                exits += self.build(stmt.orelse, [header])
            else:
                exits.append(header)
            return exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = self._new(stmt, preds)
            ctx = _LoopCtx(header)
            self.loops.append(ctx)
            back = self.build(stmt.body, [header])
            self.loops.pop()
            for node in back:
                self.nodes[node].succs.append(header)
                self.nodes[header].preds.append(node)
            exits = [header] + ctx.breaks
            if stmt.orelse:
                exits = self.build(stmt.orelse, exits)
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self._new(stmt, preds)
            return self.build(stmt.body, [header])
        if isinstance(stmt, ast.Try):
            entry = list(preds)
            body_start = len(self.nodes)
            exits = self.build(stmt.body, preds)
            # a handler can run after ANY body statement — or before the
            # first one completes, so the pre-try state reaches it too
            body_nodes = entry + list(range(body_start, len(self.nodes)))
            handler_exits: List[int] = []
            for handler in stmt.handlers:
                h_preds = list(body_nodes)
                if handler.name:
                    # bind the exception name on the first handler node;
                    # use a synthetic pass-through on the handler itself
                    marker = self._new(handler, h_preds)
                    self.nodes[marker].defs.append(Definition(
                        handler.name, marker, handler.lineno, None,
                        "except"))
                    h_preds = [marker]
                handler_exits += self.build(handler.body, h_preds)
            if stmt.orelse:
                exits = self.build(stmt.orelse, exits)
            exits = exits + handler_exits
            if stmt.finalbody:
                exits = self.build(stmt.finalbody, exits)
            return exits
        # ---- simple statements --------------------------------------
        node = self._new(stmt, preds)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return []
        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1].breaks.append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                header = self.loops[-1].header
                self.nodes[node].succs.append(header)
                self.nodes[header].preds.append(node)
            return []
        return [node]


def _target_defs(target: ast.expr, node: int, lineno: int,
                 value: Optional[ast.expr], kind: str) -> List[Definition]:
    if isinstance(target, ast.Name):
        return [Definition(target.id, node, lineno, value, kind)]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[Definition] = []
        for i, elt in enumerate(target.elts):
            part: Optional[ast.expr] = None
            if (isinstance(value, ast.Tuple)
                    and len(value.elts) == len(target.elts)
                    and not isinstance(elt, ast.Starred)):
                part = value.elts[i]
            inner = elt.value if isinstance(elt, ast.Starred) else elt
            out += _target_defs(inner, node, lineno, part, "unpack")
        return out
    if isinstance(target, ast.Starred):
        return _target_defs(target.value, node, lineno, None, "unpack")
    # attribute / subscript store: a weak update of the base name
    base = target
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value
    if isinstance(base, ast.Name):
        return [Definition(base.id, node, lineno, value, "mutate")]
    return []


def _defs_of(stmt: ast.stmt, node: int) -> List[Definition]:
    out: List[Definition] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            out += _target_defs(target, node, stmt.lineno, stmt.value,
                                "assign")
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        out += _target_defs(stmt.target, node, stmt.lineno, stmt.value,
                            "assign")
    elif isinstance(stmt, ast.AugAssign):
        out += _target_defs(stmt.target, node, stmt.lineno, stmt.value,
                            "aug")
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out.append(Definition(target.id, node, stmt.lineno, None,
                                      "del"))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append(Definition(name, node, stmt.lineno, None, "import"))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        out.append(Definition(stmt.name, node, stmt.lineno, None, "def"))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        out += _target_defs(stmt.target, node, stmt.lineno, None, "for")
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                out += _target_defs(item.optional_vars, node, stmt.lineno,
                                    item.context_expr, "with")
    return out


def own_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions that belong to this CFG node itself — a compound
    statement contributes only its header (test/iter/contexts), never
    its body, so each expression is visited by exactly one node."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets) + [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target] + ([stmt.value] if stmt.value else [])
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg else [])
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    if isinstance(stmt, ast.ExceptHandler):  # synthetic handler marker
        return [stmt.type] if stmt.type else []
    return []


# ---------------------------------------------------------------------------
# The analysis result
# ---------------------------------------------------------------------------
UnitNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class CodeUnit:
    """One analyzable body: the module top level or a single def."""

    name: str                      #: qualname ("<module>", "Class.meth")
    node: UnitNode
    body: Sequence[ast.stmt]
    params: Tuple[str, ...] = ()


def collect_units(tree: ast.Module) -> List[CodeUnit]:
    units: List[CodeUnit] = [CodeUnit("<module>", tree, tree.body)]

    def visit(node: ast.AST, prefix: str) -> None:
        for child in getattr(node, "body", []):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                args = child.args
                params = tuple(
                    a.arg for a in (args.posonlyargs + args.args
                                    + args.kwonlyargs))
                if args.vararg:
                    params += (args.vararg.arg,)
                if args.kwarg:
                    params += (args.kwarg.arg,)
                units.append(CodeUnit(qual, child, child.body, params))
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return units


class FunctionFlow:
    """CFG + reaching definitions + tag environments for one unit."""

    def __init__(self, unit: CodeUnit,
                 summaries: Optional[Dict[str, FrozenSet[str]]] = None):
        self.unit = unit
        self.summaries = summaries or {}
        builder = _CFGBuilder()
        builder.build(list(unit.body), [])
        self.nodes: List[CFGNode] = builder.nodes
        self._compute_reaching()
        self._compute_tags()

    # -- reaching definitions -----------------------------------------
    def _compute_reaching(self) -> None:
        self.all_defs: List[Definition] = []
        for node in self.nodes:
            self.all_defs.extend(node.defs)
        by_name: Dict[str, List[int]] = {}
        for i, d in enumerate(self.all_defs):
            by_name.setdefault(d.name, []).append(i)
        gen: List[FrozenSet[int]] = []
        kill: List[FrozenSet[int]] = []
        offset = 0
        for node in self.nodes:
            ids = list(range(offset, offset + len(node.defs)))
            offset += len(node.defs)
            gen.append(frozenset(ids))
            killed: set = set()
            for d, def_id in zip(node.defs, ids):
                if d.kills:
                    killed.update(j for j in by_name.get(d.name, ())
                                  if j != def_id)
            kill.append(frozenset(killed))
        n = len(self.nodes)
        self.reach_in: List[set] = [set() for _ in range(n)]
        reach_out: List[set] = [set() for _ in range(n)]
        work = list(range(n))
        while work:
            i = work.pop()
            node = self.nodes[i]
            inset: set = set()
            for p in node.preds:
                inset |= reach_out[p]
            self.reach_in[i] = inset
            outset = (inset - kill[i]) | gen[i]
            if outset != reach_out[i]:
                reach_out[i] = outset
                work.extend(node.succs)

    def defs_of(self, node_index: int, name: str) -> List[Definition]:
        """The definitions of ``name`` that reach ``node_index``."""
        return [self.all_defs[i] for i in sorted(self.reach_in[node_index])
                if self.all_defs[i].name == name]

    # -- tag environments ---------------------------------------------
    def _compute_tags(self) -> None:
        n = len(self.nodes)
        self.env_in: List[Dict[str, FrozenSet[str]]] = [{} for _ in range(n)]
        env_out: List[Dict[str, FrozenSet[str]]] = [{} for _ in range(n)]
        entry_env = {p: _EMPTY for p in self.unit.params}
        work = list(range(n))
        rounds = 0
        while work and rounds < 10000:
            rounds += 1
            i = work.pop(0)
            node = self.nodes[i]
            env: Dict[str, FrozenSet[str]] = {}
            if not node.preds:
                env.update(entry_env)
            for p in node.preds:
                for name, tags in env_out[p].items():
                    env[name] = env.get(name, _EMPTY) | tags
            self.env_in[i] = dict(env)
            self._transfer(node, env)
            if env != env_out[i]:
                env_out[i] = env
                work.extend(s for s in node.succs if s not in work)

    def _transfer(self, node: CFGNode,
                  env: Dict[str, FrozenSet[str]]) -> None:
        for d in node.defs:
            if d.kind == "del":
                env.pop(d.name, None)
                continue
            if d.kind in ("assign", "with", "unpack"):
                tags = self.eval_tags(d.value, env) if d.value is not None \
                    else _EMPTY
                env[d.name] = tags
            elif d.kind in ("aug", "mutate"):
                extra = self.eval_tags(d.value, env) if d.value is not None \
                    else _EMPTY
                env[d.name] = env.get(d.name, _EMPTY) | extra
            else:  # param/import/def/for/except
                env.setdefault(d.name, _EMPTY)
        # receiver-mutating calls fold argument tags into the receiver
        for expr in own_exprs(node.stmt):
            for sub in ast.walk(expr):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _MUTATORS
                        and isinstance(sub.func.value, ast.Name)):
                    name = sub.func.value.id
                    tags = _EMPTY
                    for arg in sub.args:
                        tags |= self.eval_tags(arg, env)
                    if tags:
                        env[name] = env.get(name, _EMPTY) | tags

    # -- expression evaluation ----------------------------------------
    def eval_tags(self, expr: Optional[ast.expr],
                  env: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
        """Taint tags of ``expr`` under ``env``."""
        if expr is None:
            return _EMPTY
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _EMPTY)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return frozenset({TAG_SET})
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            tags = _EMPTY
            for gen in expr.generators:
                tags |= self.eval_tags(gen.iter, env)
            return tags
        if isinstance(expr, (ast.List, ast.Tuple)):
            # a list/tuple literal has deterministic *own* order, but it
            # carries its elements: a tainted element still poisons any
            # serialization sink the container reaches
            tags = _EMPTY
            for elt in expr.elts:
                tags |= self.eval_tags(elt, env)
            return tags
        if isinstance(expr, ast.Dict):
            tags = _EMPTY
            for key in expr.keys:
                if key is not None:       # None = ``**mapping`` spread
                    tags |= self.eval_tags(key, env)
            for value in expr.values:
                tags |= self.eval_tags(value, env)
            return tags
        if isinstance(expr, ast.Call):
            return self._call_tags(expr, env)
        if isinstance(expr, ast.BinOp):
            return (self.eval_tags(expr.left, env)
                    | self.eval_tags(expr.right, env))
        if isinstance(expr, ast.BoolOp):
            tags = _EMPTY
            for value in expr.values:
                tags |= self.eval_tags(value, env)
            return tags
        if isinstance(expr, ast.IfExp):
            return (self.eval_tags(expr.body, env)
                    | self.eval_tags(expr.orelse, env))
        if isinstance(expr, ast.Starred):
            return self.eval_tags(expr.value, env)
        if isinstance(expr, ast.Subscript):
            if isinstance(expr.slice, ast.Slice):
                # a slice preserves the underlying order
                return self.eval_tags(expr.value, env)
            return _EMPTY
        if isinstance(expr, ast.NamedExpr):
            return self.eval_tags(expr.value, env)
        return _EMPTY

    def _call_tags(self, call: ast.Call,
                   env: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "sorted":                      # the sanitizer
                return _EMPTY
            if name in ("set", "frozenset"):
                return frozenset({TAG_SET})
            if name in _TRANSPARENT_WRAPPERS and call.args:
                return self.eval_tags(call.args[0], env)
            if name in _SEEDABLE_CTORS and not call.args \
                    and not call.keywords:
                return frozenset({TAG_RNG})
            if name in self.summaries:                # one-level summary
                return self.summaries[name]
            return _EMPTY
        if isinstance(func, ast.Attribute):
            attr = func.attr
            dotted = dotted_name(func)
            if dotted is not None:
                if dotted in _CLOCK_CALLS:
                    return frozenset({TAG_TIME})
                if dotted.startswith("obs.") or ".obs." in dotted:
                    return frozenset({TAG_OBS})
                parts = dotted.split(".")
                if (len(parts) == 2 and parts[0] == "random"
                        and parts[1] in _RANDOM_DRAWS):
                    return frozenset({TAG_RNG})
                if (len(parts) == 3 and parts[0] in ("np", "numpy")
                        and parts[1] == "random"):
                    return frozenset({TAG_RNG})
                if (parts[-1] in ("now", "utcnow", "today")
                        and ("datetime" in parts[:-1]
                             or "date" in parts[:-1])):
                    return frozenset({TAG_TIME})
            if attr in _LISTING_METHODS:
                return frozenset({TAG_LISTING})
            if attr in _SET_ALGEBRA:
                return frozenset({TAG_SET})
            if attr in _VIEW_METHODS:
                # dict/set views and .copy() inherit the receiver's tags
                return self.eval_tags(func.value, env)
        return _EMPTY


# ---------------------------------------------------------------------------
# Module-level plumbing: summaries + per-module analysis cache
# ---------------------------------------------------------------------------
def return_summaries(tree: ast.Module) -> Dict[str, FrozenSet[str]]:
    """One level of helper summaries: for each module-level function,
    the tags its return expressions carry when analyzed standalone."""
    summaries: Dict[str, FrozenSet[str]] = {}
    for child in tree.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = child.args
        params = tuple(a.arg for a in (args.posonlyargs + args.args
                                       + args.kwonlyargs))
        unit = CodeUnit(child.name, child, child.body, params)
        flow = FunctionFlow(unit)
        tags = _EMPTY
        for node in flow.nodes:
            if isinstance(node.stmt, ast.Return) and node.stmt.value:
                tags |= flow.eval_tags(node.stmt.value,
                                       flow.env_in[node.index])
        if tags:
            summaries[child.name] = tags
    return summaries


class ModuleDataflow:
    """Lazy per-module analysis shared across rule families."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self.units = collect_units(info.tree)
        self.summaries = return_summaries(info.tree)
        self._flows: Dict[int, FunctionFlow] = {}

    def flow(self, unit: CodeUnit) -> FunctionFlow:
        key = id(unit.node)
        if key not in self._flows:
            self._flows[key] = FunctionFlow(unit, self.summaries)
        return self._flows[key]

    def flows(self) -> List[Tuple[CodeUnit, FunctionFlow]]:
        return [(unit, self.flow(unit)) for unit in self.units]


def dataflow_for(info: ModuleInfo) -> ModuleDataflow:
    """The (cached) dataflow analyses for one parsed module."""
    cached = getattr(info, "_dataflow", None)
    if cached is None:
        cached = ModuleDataflow(info)
        info._dataflow = cached  # type: ignore[attr-defined]
    return cached
