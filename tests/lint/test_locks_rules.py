"""Rule family L on the lock-discipline fixtures."""

import pytest

from repro.lint import LintConfig, run_lint

from .helpers import FIXTURES, by_rule, mark_line

BAD = FIXTURES / "locks" / "bad.py"
GOOD = FIXTURES / "locks" / "good.py"


def _report(filename):
    config = LintConfig(root=FIXTURES / "locks", scan_paths=(filename,))
    return run_lint(config, families=("locks",))


@pytest.fixture()
def bad():
    return _report("bad.py")


#: (rule id, MARK name) — one hazard per line in the bad fixture
EXPECTED = [
    ("L01", "l01-unguarded-write"),
    ("L02", "l02-inversion"),
    ("L02", "l02-reacquire"),
    ("L03", "l03-sleep"),
    ("L03", "l03-recv"),
    ("L03", "l03-yield"),
    ("L03", "l03-wait-other-held"),
]


@pytest.mark.parametrize("rule,marker", EXPECTED,
                         ids=[m for _, m in EXPECTED])
def test_each_hazard_fires_at_its_line(bad, rule, marker):
    line = mark_line(BAD, marker)
    hits = [f for f in bad.findings
            if f.rule == rule and f.line == line]
    assert hits, (f"expected {rule} at bad.py:{line} ({marker}); got "
                  + "; ".join(f.render() for f in bad.findings))


def test_no_extra_findings(bad):
    assert len(bad.findings) == len(EXPECTED)
    assert {f.path for f in bad.findings} == {"bad.py"}


def test_rule_totals(bad):
    grouped = by_rule(bad)
    assert {r: len(v) for r, v in grouped.items()} == \
        {"L01": 1, "L02": 2, "L03": 4}


def test_l01_names_the_guard_and_its_reason(bad):
    [l01] = by_rule(bad)["L01"]
    assert "self._lock" in l01.message
    assert "bumped from worker threads" in l01.hint


def test_inversion_names_both_sites(bad):
    inversion = [f for f in by_rule(bad)["L02"]
                 if "inversion" in f.message]
    assert len(inversion) == 1
    assert "bad.py:" in inversion[0].message   # the reverse-order site


def test_disciplined_fixture_is_clean():
    report = _report("good.py")
    assert report.clean, [f.render() for f in report.findings]


def test_guard_marker_without_assignment_is_x01(tmp_path):
    src = tmp_path / "loose.py"
    src.write_text(
        "import threading\n\n\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n\n"
        "    # lint: guarded_by(self._lock: floating marker)\n"
        "    def method(self):\n"
        "        return 1\n",
        encoding="utf-8")
    config = LintConfig(root=tmp_path, scan_paths=("loose.py",))
    report = run_lint(config, families=("locks",))
    assert [f.rule for f in report.findings] == ["X01"]
    assert "not attached" in report.findings[0].message
