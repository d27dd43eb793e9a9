"""Rule family P: scalar/vector backend-parity pairing.

The repo keeps paired scalar/array implementations bit-identical
op-for-op (the RK2 power-stage steps and their derivatives, the
step-planning crossing caps, the adaptive plan and commit, the scalar
solver tick vs. the fused vector tick).  Rules both backends apply to
plain floats live in one shared helper instead and need no pair.  The
pair registry lives in :data:`repro.lint.config.DEFAULT_PARITY_PAIRS`;
this module hashes each member's docstring-stripped AST and compares
against
``tests/golden/parity_lock.json``:

* one member's hash moved, the twin's did not → **P01** (the dangerous
  case: a one-sided edit that silently breaks bit-parity);
* both moved but the lock still records the old pair → **P02** (edit
  acknowledged by re-running ``--update-locks``);
* a member or lock entry is missing → **P03**.

The lockfile is the explicit ack: updating it is a reviewable diff
that says "yes, both sides were considered together".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .config import LintConfig
from .engine import ModuleIndex, find_def, node_fingerprint, read_lock
from .findings import Finding


def _resolve(index: ModuleIndex, member: Tuple[str, str]):
    """``(ModuleInfo, def node)`` for one pair member, or ``(info,
    None)`` / ``(None, None)`` when unresolvable."""
    module, qualname = member
    info = index.get(module)
    if info is None:
        return None, None
    return info, find_def(info.tree, qualname)


def member_hashes(config: LintConfig, index: ModuleIndex
                  ) -> Tuple[Dict[str, Dict], List[Finding]]:
    """Current fingerprints for every registered pair, plus P03
    findings for members that cannot be resolved."""
    hashes: Dict[str, Dict] = {}
    findings: List[Finding] = []
    for pair_id, a, b in config.parity_pairs:
        sides = {}
        for side, member in (("a", a), ("b", b)):
            info, node = _resolve(index, member)
            if node is None:
                where = member[0] if info is not None else "lint/config.py"
                findings.append(Finding(
                    "P03", where, 1,
                    f"parity pair {pair_id!r}: member "
                    f"{member[0]}:{member[1]} cannot be resolved",
                    "update the pair registry to the renamed symbol, "
                    "or restore the function"))
                sides = {}
                break
            sides[side] = {
                "module": member[0],
                "qualname": member[1],
                "hash": node_fingerprint(node),
                "line": node.lineno,
            }
        if sides:
            hashes[pair_id] = sides
    return hashes, findings


def lock_payload(config: LintConfig, index: ModuleIndex) -> Dict:
    """Lockfile content for the current tree (``--update-locks``)."""
    hashes, findings = member_hashes(config, index)
    if findings:
        raise RuntimeError("cannot lock unresolved parity pairs: "
                           + findings[0].render())
    return {"pairs": {
        pair_id: {side: {k: v for k, v in entry.items() if k != "line"}
                  for side, entry in sides.items()}
        for pair_id, sides in hashes.items()}}


def check(config: LintConfig, index: ModuleIndex) -> List[Finding]:
    if not config.parity_pairs:
        return []
    hashes, findings = member_hashes(config, index)
    lock = read_lock(config.parity_lock_path)
    lock_pairs = (lock or {}).get("pairs", {})
    if lock is None:
        first = next(iter(hashes.values()), None)
        where = first["a"]["module"] if first else "lint/config.py"
        line = first["a"]["line"] if first else 1
        findings.append(Finding(
            "P03", where, line,
            f"parity lockfile missing ({config.parity_lock_path})",
            "generate it with `python -m repro.lint --update-locks`"))
        return findings
    for pair_id, sides in hashes.items():
        locked = lock_pairs.get(pair_id)
        if locked is None or set(locked) != {"a", "b"}:
            findings.append(Finding(
                "P03", sides["a"]["module"], sides["a"]["line"],
                f"parity pair {pair_id!r} has no lockfile entry",
                "ack the new pair with "
                "`python -m repro.lint --update-locks`"))
            continue
        moved = {}
        for side in ("a", "b"):
            entry, locked_entry = sides[side], locked[side]
            renamed = (entry["module"] != locked_entry.get("module")
                       or entry["qualname"] != locked_entry.get("qualname"))
            moved[side] = renamed or entry["hash"] != locked_entry.get("hash")
        if moved["a"] != moved["b"]:
            changed = "a" if moved["a"] else "b"
            twin = "b" if moved["a"] else "a"
            entry, twin_entry = sides[changed], sides[twin]
            findings.append(Finding(
                "P01", entry["module"], entry["line"],
                f"parity pair {pair_id!r}: {entry['qualname']} changed "
                f"but its twin {twin_entry['module']}:"
                f"{twin_entry['qualname']} did not",
                "port the change to the twin (bit-identical op-for-op),"
                " then ack with `python -m repro.lint --update-locks`"))
        elif moved["a"]:
            entry = sides["a"]
            findings.append(Finding(
                "P02", entry["module"], entry["line"],
                f"parity pair {pair_id!r}: both members changed but "
                "the lockfile still records the old pair",
                "ack the joint edit with "
                "`python -m repro.lint --update-locks`"))
    return findings
