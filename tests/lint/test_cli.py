"""The ``python -m repro.lint`` front door."""

import json

from repro.lint.cli import main
from repro.lint.findings import RULES, rule_ids

from .helpers import REPO

SRC = str(REPO / "src")


def test_list_rules_covers_the_whole_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out


def test_retired_rules_are_not_listed(capsys):
    """The key, payload and job field sets are derived in code, and the
    cache reads an entry of another RunResult layout as a miss, so the
    rules that policed hand-kept copies of them are gone; so are the
    lock rules, now that every lock is a one-lock leaf class
    (tests/test_lock_structure.py)."""
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("K01", "K02", "K03", "K04", "K05", "K06",
                    "W01", "W02", "W03", "L01", "L02", "L03"):
        assert rule_id not in out


def test_explain_prints_the_catalog_entry(capsys):
    assert main(["--explain", "D05"]) == 0
    out = capsys.readouterr().out
    assert "D05" in out
    assert RULES["D05"].title in out
    assert RULES["D05"].bad_example.strip().splitlines()[0] in out


def test_explain_is_case_insensitive(capsys):
    assert main(["--explain", "d03"]) == 0
    assert "D03" in capsys.readouterr().out


def test_explain_unknown_rule_is_a_usage_error(capsys):
    assert main(["--explain", "Z99"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_bogus_path_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_clean_tree_exits_zero_with_summary(capsys):
    assert main([SRC]) == 0
    out = capsys.readouterr().out
    assert "repro.lint: clean" in out


def test_quiet_suppresses_the_summary(capsys):
    assert main([SRC, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_json_report_written_to_file(tmp_path, capsys):
    report_path = tmp_path / "lint.json"
    assert main([SRC, "--json", str(report_path)]) == 0
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["clean"] is True
    assert payload["modules_scanned"] > 0
    assert payload["findings"] == []
    # the allowlist is carried in the report, never silently dropped
    assert isinstance(payload["suppressed"], list)


def test_json_to_stdout(capsys):
    assert main([SRC, "--json", "-", "--quiet"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
