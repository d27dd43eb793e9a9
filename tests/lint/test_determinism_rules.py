"""Rule family D on the determinism fixtures."""

import pytest

from repro.lint import LintConfig, run_lint

from .helpers import FIXTURES, REPO, by_rule, mark_line

BAD = FIXTURES / "det" / "bad.py"
GOOD = FIXTURES / "det" / "good.py"


def _report(filename):
    config = LintConfig(root=FIXTURES / "det", scan_paths=(filename,))
    return run_lint(config)


@pytest.fixture()
def bad():
    return _report("bad.py")


#: (rule id, MARK name) — one hazard per line in the bad fixture
EXPECTED = [
    ("D01", "d01-random-gauss"),
    ("D01", "d01-np-legacy"),
    ("D01", "d01-unseeded-ctor"),
    ("D02", "d02-perf-counter"),
    ("D02", "d02-datetime-now"),
    ("D03", "d03-set-literal"),
    ("D03", "d03-glob"),
    ("D03", "d03-wrapped-iterdir"),
    ("D03", "d03-set-union"),
    ("D03", "d03-through-variable"),
    ("D04", "d04-sort-id"),
    ("D04", "d04-min-lambda"),
    ("D05", "d05-set-into-dumps"),
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
        {"D01": 3, "D02": 2, "D03": 5, "D04": 2, "D05": 1}


def test_through_variable_case_is_invisible_to_syntax_alone():
    """The pinned ROADMAP case: the flagged loop iterates a *plain
    Name* — two assignments away from the ``set()`` — so any checker
    that only inspects the iterated expression's own syntax (the v1
    analyzer) provably cannot flag it."""
    import ast
    line = mark_line(BAD, "d03-through-variable")
    tree = ast.parse(BAD.read_text(encoding="utf-8"))
    loops = [n for n in ast.walk(tree)
             if isinstance(n, ast.For) and n.iter.lineno == line]
    assert len(loops) == 1
    assert isinstance(loops[0].iter, ast.Name)


def test_seeded_and_sorted_code_is_clean():
    report = _report("good.py")
    assert report.clean, [f.render() for f in report.findings]


def test_deliberate_exception_is_counted_not_dropped():
    report = _report("good.py")
    assert len(report.suppressed) == 1
    sup = report.suppressed[0]
    assert sup.finding.rule == "D03"
    assert sup.reason == "order logged, never used"


def test_sorted_wrapper_is_not_transparent():
    """sorted(base.glob(...)) pins the order, so D03 must not fire —
    the good fixture iterates a sorted glob on purpose."""
    report = _report("good.py")
    assert not any(f.rule == "D03" for f in report.findings)


# ---------------------------------------------------------------------------
# D06 + the wall-clock module allowlist (the obs_key fixture)
# ---------------------------------------------------------------------------
OBS_KEY = FIXTURES / "det" / "obs_key.py"


def _obs_report(allow=False):
    config = LintConfig(root=FIXTURES / "det", scan_paths=("obs_key.py",),
                        wallclock_modules=(("obs_key.py",) if allow else ()))
    return run_lint(config)


class TestD06AndWallclockAllowlist:
    def test_obs_value_into_cache_key_fires(self):
        report = _obs_report()
        line = mark_line(OBS_KEY, "d06-cache-key")
        assert any(f.rule == "D06" and f.line == line
                   for f in report.findings), \
            [f.render() for f in report.findings]

    def test_obs_value_into_lockstep_key_fires(self):
        report = _obs_report()
        line = mark_line(OBS_KEY, "d06-lockstep-key")
        assert any(f.rule == "D06" and f.line == line
                   for f in report.findings)

    def test_obs_values_on_wire_sinks_are_not_d05(self):
        """Receipts serialize obs values by design: TAG_OBS must not
        count as D05 taint on json.dumps."""
        report = _obs_report()
        assert not any(f.rule == "D05" for f in report.findings), \
            [f.render() for f in report.findings]

    def test_wallclock_fires_outside_allowlist(self):
        report = _obs_report(allow=False)
        line = mark_line(OBS_KEY, "d02-wallclock")
        assert any(f.rule == "D02" and f.line == line
                   for f in report.findings)

    def test_allowlist_exempts_d02_module_wide(self):
        report = _obs_report(allow=True)
        assert not any(f.rule == "D02" for f in report.findings)

    def test_allowlist_never_covers_d06(self):
        """The allowlist waives wall-clock *reads*, not key-sink flows:
        both D06 findings must survive it."""
        report = _obs_report(allow=True)
        assert sum(1 for f in report.findings if f.rule == "D06") == 2

    def test_repo_obs_package_is_covered_and_clean(self):
        """The real config scans repro/obs under the allowlist; the
        shipped package must produce no determinism findings."""
        root = REPO / "src" / "repro"
        config = LintConfig(root=root, scan_paths=("obs",))
        assert "obs" in LintConfig().wallclock_modules
        report = run_lint(config)
        assert report.clean, [f.render() for f in report.findings]
