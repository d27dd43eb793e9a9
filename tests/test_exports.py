"""Every ``repro`` package lists its exports in ``__all__``, and every
name a module lists there exists.

A deletion that leaves its name behind in a package's ``__all__`` (a
``"Mutex"`` string, say) breaks ``from repro.x import *``, yet nothing
imports that name any more, so no other test fails.  The modules are
found from the source tree without importing them, one test each, so a
stale name is reported under its module.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
_DECLARES_ALL = re.compile(r"^__all__\b", re.M)


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _exporting_modules():
    """``(name, is_package)`` for every package and for every module
    whose source assigns ``__all__``."""
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        is_package = path.name == "__init__.py"
        if is_package or _DECLARES_ALL.search(path.read_text()):
            found.append((_module_name(path), is_package))
    return found


MODULES = _exporting_modules()


def test_the_scan_finds_the_packages():
    names = {name for name, _ in MODULES}
    assert {"repro", "repro.digital", "repro.metrics",
            "repro.session"} <= names, names


@pytest.mark.parametrize("name, is_package", MODULES,
                         ids=[name for name, _ in MODULES])
def test_all_entries_resolve(name, is_package):
    module = importlib.import_module(name)
    if is_package:
        assert hasattr(module, "__all__"), f"{name} has no __all__"
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == [], f"__all__ names with no binding in {name}"
