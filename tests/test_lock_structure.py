"""Every lock in ``src/repro`` is a one-lock leaf class.

A leaf class creates exactly one ``threading`` lock in ``__init__`` and
keeps the state that lock guards private.  Its methods take the lock,
read or update that state, and let go: nothing blocks, calls back or
takes a second lock meanwhile.  Guarded state then cannot be touched
without its lock, two locks cannot be taken in opposite orders, and
nothing waits while holding one, by construction.

The four checks run over the package, over a disciplined module (which
must pass them all), and over that module with one hazard added (which
must be caught at its line).
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
PRIMITIVES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
#: methods that block (``wait``/``wait_for`` are fine on the class's own
#: Condition, ``join`` on a string)
BLOCKING = {"result", "sendall", "recv", "accept", "join", "wait",
            "wait_for", "acquire"}
#: methods that update the container they are called on
MUTATORS = {"append", "appendleft", "extend", "insert", "pop", "popleft",
            "remove", "clear", "update", "setdefault", "add", "discard"}
CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
              ast.SetComp)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_attr(node):
    """``attr`` for a ``self.attr`` expression, else ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _call_problem(call, leaf, local, classes):
    """Why a call may block, call back or take a second lock while the
    leaf's lock is held, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in dir(builtins) or func.id in classes:
            return None
        return f"{func.id}() may call back"
    if not isinstance(func, ast.Attribute):
        return None
    own_wait = (func.attr in ("wait", "wait_for") and leaf[3] == "Condition"
                and _self_attr(func.value) == leaf[2])
    string_join = func.attr == "join" and isinstance(func.value, ast.Constant)
    if func.attr in BLOCKING and not (own_wait or string_join):
        return f".{func.attr}() blocks"
    if _self_attr(func):
        return f"self.{func.attr}() re-enters the class"
    base = func.value
    while isinstance(base, ast.Attribute):
        base = base.value
    if isinstance(base, ast.Name) and base.id not in local | {"self"}:
        return f"{ast.unparse(func)}() calls out of the class"
    return None


class Scan:
    """The locks of a set of parsed modules, and what breaks the leaf
    shape among them.  Each ``*_problems`` method lists one
    ``path:line: reason`` string per violation."""

    def __init__(self, modules):
        self.modules = modules
        self.parent = {child: node for tree in modules.values()
                       for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
        self.leaves = self._leaves()
        self.locks = {lock for _, _, lock, _ in self.leaves.values()}
        self.lock_withs = [
            node for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            and any(isinstance(i.context_expr, ast.Attribute)
                    and i.context_expr.attr in self.locks
                    for i in node.items)]

    @classmethod
    def of_package(cls):
        return cls({path.relative_to(PACKAGE).as_posix():
                    ast.parse(path.read_text(encoding="utf-8"))
                    for path in sorted(PACKAGE.rglob("*.py"))})

    @classmethod
    def of_source(cls, source):
        return cls({"fixture.py": ast.parse(source)})

    def _ancestors(self, node):
        while node in self.parent:
            node = self.parent[node]
            yield node

    def _method_and_class(self, node):
        """The outermost method around ``node`` and its class."""
        found = (None, None)
        for a in self._ancestors(node):
            if (isinstance(a, FUNCS)
                    and isinstance(self.parent.get(a), ast.ClassDef)):
                found = (a, self.parent[a])
        return found

    def _where(self, node):
        tree = next(a for a in [node, *self._ancestors(node)]
                    if a not in self.parent)
        relpath = next(p for p, t in self.modules.items() if t is tree)
        return f"{relpath}:{getattr(node, 'lineno', 0)}"

    def _creations(self):
        """``(call, primitive)`` for every lock the modules make."""
        for tree in self.modules.values():
            imported = {a.asname or a.name for n in ast.walk(tree)
                        if isinstance(n, ast.ImportFrom)
                        and n.module == "threading" for a in n.names}
            for call in ast.walk(tree):
                func = getattr(call, "func", None)
                if (isinstance(func, ast.Attribute)
                        and func.attr in PRIMITIVES
                        and getattr(func.value, "id", None) == "threading"):
                    yield call, func.attr
                elif (isinstance(func, ast.Name)
                      and func.id in PRIMITIVES & imported):
                    yield call, func.id

    def _leaves(self):
        """``id(class) -> (name, class, lock attribute, primitive)`` for
        every lock made as ``self.<attr> = threading.<Primitive>()`` in
        an ``__init__``."""
        leaves = {}
        for call, kind in self._creations():
            method, cls = self._method_and_class(call)
            assign = self.parent[call]
            targets = getattr(assign, "targets",
                              [getattr(assign, "target", 0)])
            if (method is not None and method.name == "__init__"
                    and len(targets) == 1 and _self_attr(targets[0])):
                leaves[id(cls)] = (f"{self._where(cls)}:{cls.name}", cls,
                                   _self_attr(targets[0]), kind)
        return leaves

    def _leaf_of(self, node):
        return self.leaves.get(id(self._method_and_class(node)[1]))

    def _under(self, node, lock):
        """Whether ``node`` sits in a ``with self.<lock>:`` block."""
        return any(a in self.lock_withs
                   and any(_self_attr(i.context_expr) == lock
                           for i in a.items)
                   for a in self._ancestors(node))

    def creation_problems(self):
        """(a) A lock is made as ``self.<attr> = threading.<Primitive>()``
        in an ``__init__``, by a class that makes no other."""
        problems, per_class = [], {}
        for call, kind in self._creations():
            method, _ = self._method_and_class(call)
            leaf = self._leaf_of(call)
            if leaf is None or method.name != "__init__":
                problems.append(
                    f"{self._where(call)}: {kind}() outside an __init__")
            else:
                per_class[leaf[0]] = per_class.get(leaf[0], 0) + 1
        return problems + [f"{name}: makes {count} locks"
                           for name, count in per_class.items() if count > 1]

    def taking_problems(self):
        """(b) A lock is taken only by ``with self.<lock>:`` in its own
        class, never inside another lock's ``with``, and never by an
        explicit ``acquire``/``release``."""
        problems = []
        for node in self.lock_withs:
            leaf = self._leaf_of(node)
            if leaf is None or not self._under(node.body[0], leaf[2]):
                problems.append(f"{self._where(node)}: takes a lock its "
                                "class does not own")
            if any(a in self.lock_withs for a in self._ancestors(node)):
                problems.append(f"{self._where(node)}: nested in another "
                                "lock")
        return problems + [
            f"{self._where(n)}: {ast.unparse(n.func)}()"
            for tree in self.modules.values() for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and getattr(n.func, "attr", None) in ("acquire", "release")
            and getattr(n.func.value, "attr", None) in self.locks]

    def blocking_problems(self):
        """(c) While a lock is held: no ``yield``/``await``, no blocking
        call (``wait``/``wait_for`` only on the class's own Condition),
        no call back into the class and none out of it -- only builtins,
        the module's own classes, and methods of guarded or local
        values."""
        problems = []
        for node in self.lock_withs:
            leaf = self._leaf_of(node)
            if leaf is None:
                continue       # reported by (b)
            method, _ = self._method_and_class(node)
            local = {n.arg for n in ast.walk(method)
                     if isinstance(n, ast.arg)}
            local |= {n.id for n in ast.walk(method)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
            tree = next(a for a in self._ancestors(node)
                        if a not in self.parent)
            classes = {n.name for n in tree.body
                       if isinstance(n, ast.ClassDef)}
            for sub in (s for stmt in node.body for s in ast.walk(stmt)):
                if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                    problems.append(f"{self._where(sub)}: suspends under "
                                    "a lock")
                elif isinstance(sub, ast.Call):
                    problem = _call_problem(sub, leaf, local, classes)
                    if problem:
                        problems.append(f"{self._where(sub)}: {problem}")
        return problems

    def _guarded(self, cls, lock):
        """The state a lock guards: every ``self`` attribute touched
        under it, plus every one a method other than ``__init__``
        assigns, deletes, stores into, or (if ``__init__`` made it a
        container) updates in place."""
        methods = [m for m in cls.body if isinstance(m, FUNCS)]
        fresh = {_self_attr(t) for m in methods if m.name == "__init__"
                 for n in ast.walk(m)
                 if isinstance(n, (ast.Assign, ast.AnnAssign))
                 and (isinstance(n.value, CONTAINERS)
                      or getattr(getattr(n.value, "func", None), "id", None)
                      in ("list", "dict", "set", "deque"))
                 for t in getattr(n, "targets",
                                  [getattr(n, "target", None)])}
        guarded = set()
        for m in methods:
            for n in ast.walk(m):
                if _self_attr(n) and self._under(n, lock):
                    guarded.add(n.attr)
                if m.name == "__init__":
                    continue
                if isinstance(getattr(n, "ctx", None), (ast.Store, ast.Del)):
                    while isinstance(n, ast.Subscript):
                        n = n.value
                    guarded.add(_self_attr(n))
                elif (isinstance(n, ast.Call)
                      and getattr(n.func, "attr", None) in MUTATORS
                      and _self_attr(n.func.value) in fresh):
                    guarded.add(_self_attr(n.func.value))
        return guarded - {None, lock}

    def guard_problems(self):
        """(d) In a lock-owning class, the lock and the state it guards
        are private, and outside ``__init__`` the state is read and
        written only under the lock."""
        problems = []
        for name, cls, lock, _ in self.leaves.values():
            guarded = self._guarded(cls, lock)
            problems += [f"{name}: {attr} is public"
                         for attr in sorted(guarded | {lock})
                         if not attr.startswith("_")]
            problems += [f"{self._where(n)}: {name}.{n.attr} touched "
                         f"without {lock}"
                         for m in cls.body if isinstance(m, FUNCS)
                         and m.name != "__init__" for n in ast.walk(m)
                         if _self_attr(n) in guarded
                         and not self._under(n, lock)]
        return problems


PACKAGE_SCAN = Scan.of_package()


def test_every_lock_is_created_alone_in_an_init():
    problems = PACKAGE_SCAN.creation_problems()
    assert not problems, "\n".join(problems)
    assert len(PACKAGE_SCAN.leaves) >= 10, \
        "the scan missed the package's locks"


def test_locks_are_taken_only_by_their_class_and_never_nested():
    problems = PACKAGE_SCAN.taking_problems()
    assert not problems, "\n".join(problems)


def test_nothing_blocks_calls_back_or_takes_a_lock_under_a_lock():
    problems = PACKAGE_SCAN.blocking_problems()
    assert not problems, "\n".join(problems)


def test_guarded_state_is_private_and_touched_only_under_its_lock():
    problems = PACKAGE_SCAN.guard_problems()
    assert not problems, "\n".join(problems)


#: a disciplined module: one leaf on a Lock, one on a Condition
DISCIPLINED = '''
import threading
import time


class Counter:
    def __init__(self, peer=None):
        self._lock = threading.Lock()
        self._n = 0
        self._items = []
        self._peer = peer

    def bump(self, by=1):
        with self._lock:
            self._n += by
            self._items.append(self._n)
            return ", ".join(str(item) for item in self._items)


class Queue:
    def __init__(self):
        self._cond = threading.Condition()
        self._items = []

    def put(self, item):
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def take(self):
        with self._cond:
            self._cond.wait_for(lambda: bool(self._items))
            return self._items.pop(0)

    def drain(self):
        with self._cond:
            items = list(self._items)
            self._items.clear()
        yield from items
'''


def test_disciplined_leaves_pass_every_check():
    scan = Scan.of_source(DISCIPLINED)
    assert len(scan.leaves) == 2
    problems = (scan.creation_problems() + scan.taking_problems()
                + scan.blocking_problems() + scan.guard_problems())
    assert not problems, "\n".join(problems)


#: name -> (the check that must catch it, code appended to DISCIPLINED
#: with the hazard on its ``# HAZARD`` line; indented code is a method
#: of ``Queue``)
HAZARDS = {
    "two-locks": (Scan.creation_problems, '''
class Registry:  # HAZARD
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition()
'''),
    "module-level-lock": (Scan.creation_problems, '''
_lock = threading.Lock()  # HAZARD
'''),
    "imported-primitive": (Scan.creation_problems, '''
from threading import RLock
_guard = RLock()  # HAZARD
'''),
    "made-outside-init": (Scan.creation_problems, '''
    def restart(self):
        self._cond = threading.Condition()  # HAZARD
'''),
    "foreign-lock": (Scan.taking_problems, '''
def land(counter):
    with counter._lock:  # HAZARD
        pass
'''),
    "nested-foreign": (Scan.taking_problems, '''
    def hand_over(self, counter):
        with self._cond:
            with counter._lock:  # HAZARD
                pass
'''),
    "reacquire": (Scan.taking_problems, '''
    def put_twice(self, item):
        with self._cond:
            with self._cond:  # HAZARD
                self._items.append(item)
'''),
    "explicit-acquire": (Scan.taking_problems, '''
    def put_bare(self, item):
        self._cond.acquire()  # HAZARD
        self._items.append(item)
        self._cond.release()
'''),
    "sleep": (Scan.blocking_problems, '''
    def nap(self):
        with self._cond:
            time.sleep(0.1)  # HAZARD
'''),
    "recv": (Scan.blocking_problems, '''
    def fill(self, sock):
        with self._cond:
            self._items.append(sock.recv(4096))  # HAZARD
'''),
    "yield": (Scan.blocking_problems, '''
    def stream(self):
        with self._cond:
            yield from self._items  # HAZARD
'''),
    "wait-on-another": (Scan.blocking_problems, '''
    def hold(self, event):
        with self._cond:
            event.wait()  # HAZARD
'''),
    "callback": (Scan.blocking_problems, '''
    def each(self, visit):
        with self._cond:
            visit(self._items)  # HAZARD
'''),
    "reentry": (Scan.blocking_problems, '''
    def refill(self, item):
        with self._cond:
            self.put(item)  # HAZARD
'''),
    "unguarded-write": (Scan.guard_problems, '''
    def reset(self):
        self._items = []  # HAZARD
'''),
    "unguarded-read": (Scan.guard_problems, '''
    def peek(self):
        return self._items[0]  # HAZARD
'''),
    "unguarded-update-in-place": (Scan.guard_problems, '''
    def put_unlocked(self, item):
        self._items.append(item)  # HAZARD
'''),
    "public-state": (Scan.guard_problems, '''
class Tally:  # HAZARD
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
'''),
}


@pytest.mark.parametrize("check,hazard", list(HAZARDS.values()),
                         ids=list(HAZARDS))
def test_each_hazard_is_caught_at_its_line(check, hazard):
    source = DISCIPLINED + hazard
    line = next(number for number, text
                in enumerate(source.splitlines(), 1) if "# HAZARD" in text)
    problems = check(Scan.of_source(source))
    assert any(re.search(rf"^fixture\.py:{line}\b", p) for p in problems), \
        f"expected a problem at fixture.py:{line}; got {problems}"
