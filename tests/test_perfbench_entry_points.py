"""perfbench's span entry points still name callables in ``src/repro``.

``perfbench/layers.py`` wraps call timers around the functions its
``ENTRY_POINTS`` table names, and ``Spans.install`` raises ``KeyError``
on a name that is gone.  Only ``perfbench/run.py --trace 1`` installs
the spans, so without this check a rename in ``src/`` (of
``code_fingerprint``, say) would break the benchmark's layer split and
no test would fail.  The table is read from the benchmark's own file,
without importing the benchmark as a package or writing bytecode next
to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("module_name, path, span", ENTRY_POINTS,
                         ids=[f"{m}:{p}" for m, p, _ in ENTRY_POINTS])
def test_entry_point_resolves_to_a_callable(module_name, path, span):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is gone ({span})"
    assert callable(owner.__dict__[attr])
