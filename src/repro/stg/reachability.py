"""Reachability analysis: state graph construction for STGs.

A state is a reachable marking together with the binary signal code.
Initial signal values may be left unspecified — they are inferred on first
use (a rising edge implies the signal was 0) and contradictions across
paths are reported as consistency violations.

The builder also detects, on the fly:

- **non-safeness** (a place accumulating more than one token),
- **inconsistency** (``a+`` firing while ``a`` is already 1, or two paths
  reaching one marking with different codes),
- **deadlocks** (states with no enabled transitions).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .petri import Marking, marking_key
from .stg import STG, Label, SignalType

#: signal-code cell values
V0, V1, VUNKNOWN = 0, 1, 2

Code = Tuple[int, ...]
StateKey = Tuple[Marking, Code]


class ReachabilityError(RuntimeError):
    """State-space construction failed (explosion guard tripped)."""


class ConsistencyViolation:
    """A rise-of-1 / fall-of-0 event, or a marking with conflicting codes."""

    def __init__(self, kind: str, detail: str, trace: List[str]):
        self.kind = kind
        self.detail = detail
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConsistencyViolation({self.kind}: {self.detail})"


class State:
    """One node of the state graph."""

    __slots__ = ("index", "marking", "code", "successors", "parent", "via")

    def __init__(self, index: int, marking: Marking, code: Code,
                 parent: Optional["State"], via: Optional[str]):
        self.index = index
        self.marking = marking
        self.code = code
        #: list of (transition_name, successor State)
        self.successors: List[Tuple[str, "State"]] = []
        self.parent = parent
        self.via = via

    def trace(self) -> List[str]:
        """Firing sequence from the initial state to this state."""
        steps: List[str] = []
        node: Optional[State] = self
        while node is not None and node.via is not None:
            steps.append(node.via)
            node = node.parent
        return list(reversed(steps))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"State(#{self.index}, code={''.join(map(str, self.code))})"


class StateGraph:
    """Explicit state graph of an STG.

    Parameters
    ----------
    max_states:
        Explosion guard; :class:`ReachabilityError` when exceeded.
    """

    def __init__(self, stg: STG, max_states: int = 200_000):
        self.stg = stg
        self.signal_order: List[str] = sorted(stg.signal_types)
        self._signal_index = {s: i for i, s in enumerate(self.signal_order)}
        self.states: Dict[StateKey, State] = {}
        self.initial: Optional[State] = None
        self.deadlocks: List[State] = []
        self.consistency_violations: List[ConsistencyViolation] = []
        self.unsafe_places: Set[str] = set()
        self._max_states = max_states
        self._code_of_marking: Dict[Marking, Code] = {}
        self._inferred: Dict[str, bool] = {}
        needs_inference = any(
            s not in stg.initial_values
            for s in self.signal_order
            if stg.transitions_of(s))
        if needs_inference:
            self._infer_initial_values()
        self._build()

    # ------------------------------------------------------------------
    def _initial_code(self) -> Code:
        code = []
        for s in self.signal_order:
            if s in self.stg.initial_values:
                code.append(V1 if self.stg.initial_values[s] else V0)
            elif s in self._inferred:
                code.append(V1 if self._inferred[s] else V0)
            else:
                code.append(VUNKNOWN)
        return tuple(code)

    def _infer_initial_values(self) -> None:
        """Pre-pass: walk the marking graph resolving unknown initial
        signal values on first use (a rising edge implies the signal was
        0 at t=0 along that path).  Cross-path disagreements are recorded
        as consistency violations; the main build then runs with fully
        resolved initial values so cyclic behaviour closes properly."""
        stg = self.stg
        unresolved = {s for s in self.signal_order
                      if s not in stg.initial_values and stg.transitions_of(s)}
        init_marking = marking_key(stg.initial_marking())
        init_code = tuple(
            (V1 if stg.initial_values[s] else V0)
            if s in stg.initial_values else VUNKNOWN
            for s in self.signal_order)
        seen = {(init_marking, init_code)}
        queue = deque([(init_marking, init_code)])
        explored = 0
        while queue and unresolved:
            marking, code = queue.popleft()
            explored += 1
            if explored > self._max_states:
                break
            marking_dict = dict(marking)
            for t in stg.enabled(marking_dict):
                new_marking_dict = stg.fire(t, marking_dict)
                if any(c > 1 for c in new_marking_dict.values()):
                    continue
                label = stg.label_of(t)
                new_code = code
                if label is not None:
                    idx = self._signal_index[label.signal]
                    value = code[idx]
                    want_pre = V0 if label.rising else V1
                    if value == VUNKNOWN:
                        inferred = bool(want_pre)
                        prior = self._inferred.get(label.signal)
                        if prior is None:
                            self._inferred[label.signal] = inferred
                            unresolved.discard(label.signal)
                        elif prior != inferred:
                            self.consistency_violations.append(
                                ConsistencyViolation(
                                    "initial",
                                    f"paths disagree on the initial value "
                                    f"of {label.signal!r}", [t]))
                        value = want_pre
                    if value != want_pre:
                        continue  # inconsistent branch; main pass reports it
                    cells = list(code)
                    cells[idx] = V1 if label.rising else V0
                    new_code = tuple(cells)
                key = (marking_key(new_marking_dict), new_code)
                if key not in seen:
                    seen.add(key)
                    queue.append(key)

    def _apply_label(self, code: Code, label: Label,
                     trace_state: State, transition: str) -> Optional[Code]:
        """Next code after firing a labelled transition; None on conflict."""
        idx = self._signal_index[label.signal]
        value = code[idx]
        want_pre = V0 if label.rising else V1
        if value == VUNKNOWN:
            value = want_pre  # inferred initial value
        if value != want_pre:
            self.consistency_violations.append(ConsistencyViolation(
                "edge",
                f"{transition} fires while {label.signal}="
                f"{1 if value == V1 else 0}",
                trace_state.trace() + [transition],
            ))
            return None
        new = list(code)
        new[idx] = V1 if label.rising else V0
        return tuple(new)

    def _build(self) -> None:
        stg = self.stg
        init_marking = marking_key(stg.initial_marking())
        init_code = self._initial_code()
        self.initial = State(0, init_marking, init_code, None, None)
        self.states[(init_marking, init_code)] = self.initial
        self._code_of_marking[init_marking] = init_code
        queue = deque([self.initial])

        while queue:
            state = queue.popleft()
            marking = dict(state.marking)
            enabled = stg.enabled(marking)
            if not enabled:
                self.deadlocks.append(state)
                continue
            for t in enabled:
                new_marking_dict = stg.fire(t, marking)
                unsafe_here = [p for p, c in new_marking_dict.items() if c > 1]
                if unsafe_here:
                    # Record the violation but do not expand past it: STG
                    # semantics require 1-safeness, and an unbounded net
                    # would otherwise blow up the exploration.
                    self.unsafe_places.update(unsafe_here)
                    continue
                new_marking = marking_key(new_marking_dict)
                label = stg.label_of(t)
                if label is not None:
                    new_code = self._apply_label(state.code, label, state, t)
                    if new_code is None:
                        continue  # inconsistent branch: do not expand
                else:
                    new_code = state.code
                key = (new_marking, new_code)
                nxt = self.states.get(key)
                if nxt is None:
                    if len(self.states) >= self._max_states:
                        raise ReachabilityError(
                            f"state graph of {stg.name!r} exceeds "
                            f"{self._max_states} states")
                    nxt = State(len(self.states), new_marking, new_code,
                                state, t)
                    self.states[key] = nxt
                    queue.append(nxt)
                    known = self._code_of_marking.get(new_marking)
                    if known is None:
                        self._code_of_marking[new_marking] = new_code
                    elif known != new_code:
                        self.consistency_violations.append(ConsistencyViolation(
                            "marking-code",
                            f"marking reached with codes {known} and {new_code}",
                            nxt.trace(),
                        ))
                state.successors.append((t, nxt))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.states)

    def all_states(self) -> List[State]:
        return list(self.states.values())

    def is_safe(self) -> bool:
        return not self.unsafe_places

    def is_consistent(self) -> bool:
        return not self.consistency_violations

    def is_deadlock_free(self) -> bool:
        return not self.deadlocks

    def code_str(self, state: State) -> str:
        """Human-readable signal code, e.g. ``"a=1 b=0"``."""
        cells = []
        for s, v in zip(self.signal_order, state.code):
            cells.append(f"{s}={'?' if v == VUNKNOWN else v}")
        return " ".join(cells)
