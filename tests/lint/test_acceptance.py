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


def test_unseeded_rng_in_scanned_code_fails_with_d01(repo_copy):
    _edit(repo_copy, "scenarios/parallel.py",
          "def lockstep_key(",
          "def _jitter():\n"
          "    import random\n"
          "    return random.random()\n\n\n"
          "def lockstep_key(")
    report = run_lint(default_config_for(repo_copy))
    d01 = by_rule(report).get("D01", [])
    assert len(d01) == 1
    assert d01[0].path == "scenarios/parallel.py"


def test_set_through_variable_into_cache_key_fails_with_d05(repo_copy):
    """A set flows through a variable and a dict literal into the
    canonical cache-key encoding — pure dataflow, no set() at the sink."""
    _edit(repo_copy, "session/cache.py",
          "    encoded = encode_config(config)",
          "    encoded = encode_config(config)\n"
          "    tracked = set(encoded)\n"
          "    encoded[\"tracked_fields\"] = list(tracked)")
    report = run_lint(default_config_for(repo_copy))
    d05 = by_rule(report).get("D05", [])
    assert len(d05) == 1
    finding = d05[0]
    assert finding.path == "session/cache.py"
    assert finding.line > 0
    assert "set" in finding.message
