"""The ISSUE acceptance gate: the real tree is lint-clean, and the
advertised mutations each make the analyzer fail with an actionable
file:line finding."""

import shutil

import pytest

from repro.lint import default_config_for, run_lint
from repro.lint.cli import main

from .helpers import REPO, by_rule


def test_real_tree_is_clean():
    """Tier-1 gate: `python -m repro.lint src/` stays at zero findings."""
    report = run_lint(default_config_for(REPO / "src"))
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert report.modules_scanned > 30


def test_cli_exits_zero_on_real_tree(capsys):
    assert main([str(REPO / "src"), "--quiet"]) == 0


@pytest.fixture()
def repo_copy(tmp_path):
    """A mutable copy of src/repro."""
    shutil.copytree(REPO / "src" / "repro", tmp_path / "src" / "repro")
    return tmp_path


def _edit(repo, relpath, old, new):
    path = repo / "src" / "repro" / relpath
    text = path.read_text(encoding="utf-8")
    assert old in text, f"anchor drifted: {old!r} not in {relpath}"
    path.write_text(text.replace(old, new), encoding="utf-8")


def _lint(repo, families):
    return run_lint(default_config_for(repo), families=families)


def test_unseeded_rng_in_scanned_code_fails_with_d01(repo_copy):
    _edit(repo_copy, "scenarios/parallel.py",
          "def lockstep_key(",
          "def _jitter():\n"
          "    import random\n"
          "    return random.random()\n\n\n"
          "def lockstep_key(")
    report = _lint(repo_copy, families=("determinism",))
    d01 = by_rule(report).get("D01", [])
    assert len(d01) == 1
    assert d01[0].path == "scenarios/parallel.py"


def test_unguarded_write_to_guarded_attr_fails_with_l01(repo_copy):
    """Moving the append outside the critical section leaves a declared
    guarded_by attribute written without its lock."""
    _edit(repo_copy, "serve/sse.py",
          "    def append(self, event: Dict[str, Any]) -> None:\n"
          "        with self._cond:\n"
          "            self._events.append(event)",
          "    def append(self, event: Dict[str, Any]) -> None:\n"
          "        self._events.append(event)\n"
          "        with self._cond:")
    report = _lint(repo_copy, families=("locks",))
    l01 = by_rule(report).get("L01", [])
    assert len(l01) == 1
    finding = l01[0]
    assert finding.path == "serve/sse.py"
    assert finding.line > 0
    assert "_events" in finding.message
    assert "self._cond" in finding.message


def test_swapped_lock_nesting_fails_with_l02(repo_copy):
    """Job._lock and EventLog._cond are never held together by design;
    nesting them in both orders is an inversion."""
    _edit(repo_copy, "serve/jobs.py",
          "        with self._lock:\n"
          "            if point.cached:\n"
          "                self.cached += 1\n"
          "            else:\n"
          "                self.computed += 1\n"
          "        self.append({",
          "        with self._lock:\n"
          "            if point.cached:\n"
          "                self.cached += 1\n"
          "            else:\n"
          "                self.computed += 1\n"
          "            self.log.append({\"event\": \"probe\"})\n"
          "        self.append({")
    _edit(repo_copy, "serve/jobs.py",
          "    def set_state(",
          "    def _probe(self):\n"
          "        with self.log._cond:\n"
          "            with self._lock:\n"
          "                return self.state\n\n"
          "    def set_state(")
    report = _lint(repo_copy, families=("locks",))
    l02 = by_rule(report).get("L02", [])
    inversions = [f for f in l02 if "inversion" in f.message]
    assert inversions, "\n".join(f.render() for f in report.findings)
    finding = inversions[0]
    assert finding.path == "serve/jobs.py"
    assert finding.line > 0
    # both acquisition sites are named so the fix is actionable
    assert "Job._lock" in finding.message
    assert "EventLog._cond" in finding.message


def test_set_through_variable_into_cache_key_fails_with_d05(repo_copy):
    """A set flows through a variable and a dict literal into the
    canonical cache-key encoding — pure dataflow, no set() at the sink."""
    _edit(repo_copy, "session/cache.py",
          "    encoded = encode_config(config)",
          "    encoded = encode_config(config)\n"
          "    tracked = set(encoded)\n"
          "    encoded[\"tracked_fields\"] = list(tracked)")
    report = _lint(repo_copy, families=("determinism",))
    d05 = by_rule(report).get("D05", [])
    assert len(d05) == 1
    finding = d05[0]
    assert finding.path == "session/cache.py"
    assert finding.line > 0
    assert "set" in finding.message
