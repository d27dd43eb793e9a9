"""Rule family K — the serialization-format lock (K03) — on a fixture
tree mirroring the real module layout."""

import shutil

from repro.lint import LintConfig, run_lint, update_locks
from repro.lint.engine import find_def

from .helpers import FIXTURES, by_rule


def _config(root, locks_dir) -> LintConfig:
    # the fixture tree mirrors the real module layout, so only the
    # root and lockfile location move
    return LintConfig(root=root, scan_paths=(), locks_dir=locks_dir)


class TestGoodFixture:
    def test_fully_keyed_tree_is_clean(self, tmp_path):
        config = _config(FIXTURES / "keys_good", tmp_path)
        update_locks(config)
        report = run_lint(config, families=("keys",))
        assert report.clean, [f.render() for f in report.findings]


class TestFormatLock:
    def _tree(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "keys_good", tree)
        config = _config(tree, tmp_path / "locks")
        update_locks(config)
        assert run_lint(config, families=("keys",)).clean
        return tree, config

    def test_result_field_change_without_bump_fires_k03(self, tmp_path):
        tree, config = self._tree(tmp_path)
        system = tree / "system.py"
        text = system.read_text(encoding="utf-8")
        system.write_text(text.replace(
            "    ripple: float = 0.0",
            "    ripple: float = 0.0\n    label: str = \"\""),
            encoding="utf-8")
        report = run_lint(config, families=("keys",))
        k03 = by_rule(report).get("K03", [])
        assert len(k03) == 1
        assert "FORMAT_VERSION" in k03[0].message + k03[0].hint

    def test_bump_without_lock_refresh_still_fires_k03(self, tmp_path):
        tree, config = self._tree(tmp_path)
        cache = tree / "session/cache.py"
        text = cache.read_text(encoding="utf-8")
        cache.write_text(text.replace("FORMAT_VERSION = 3",
                                      "FORMAT_VERSION = 4"),
                         encoding="utf-8")
        report = run_lint(config, families=("keys",))
        k03 = by_rule(report).get("K03", [])
        assert len(k03) == 1 and "stale" in k03[0].message

    def test_update_locks_acks_the_change(self, tmp_path):
        tree, config = self._tree(tmp_path)
        cache = tree / "session/cache.py"
        text = cache.read_text(encoding="utf-8")
        cache.write_text(text.replace("FORMAT_VERSION = 3",
                                      "FORMAT_VERSION = 4"),
                         encoding="utf-8")
        update_locks(config)
        assert run_lint(config, families=("keys",)).clean

    def test_missing_lock_is_reported(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "keys_good", tree)
        config = _config(tree, tmp_path / "never_written")
        report = run_lint(config, families=("keys",))
        k03 = by_rule(report).get("K03", [])
        assert len(k03) == 1 and "missing" in k03[0].message

    def test_update_locks_writes_only_format(self, tmp_path):
        locks = tmp_path / "locks"
        written = update_locks(_config(FIXTURES / "keys_good", locks))
        assert sorted(written) == ["format_lock"]
        assert sorted(p.name for p in locks.iterdir()) == [
            "format_lock.json"]


class TestResolution:
    def test_find_def_resolves_methods_and_functions(self):
        import ast
        tree = ast.parse(
            "def top():\n    pass\n\n"
            "class A:\n    def m(self):\n        pass\n")
        assert find_def(tree, "top").name == "top"
        assert find_def(tree, "A.m").name == "m"
        assert find_def(tree, "A.missing") is None
        assert find_def(tree, "B.m") is None
