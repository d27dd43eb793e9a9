"""Rule family G on the gating-purity fixtures."""

import pytest

from repro.lint import LintConfig, run_lint

from .helpers import FIXTURES, by_rule, mark_line

GATEMOD = FIXTURES / "purity" / "gatemod.py"

GATE_ROOTS = (
    ("gatemod.py", "GatedClock.suspend"),
    ("gatemod.py", "GateController._maybe_gate"),
    ("gatemod.py", "GateController._resume"),
)

PURE_ROOTS = (
    ("puremod.py", "PureClock.suspend"),
    ("puremod.py", "PureClock.fast_forward"),
    ("puremod.py", "PureController._maybe_gate"),
)


def _report(scan, roots, tmp_path):
    config = LintConfig(root=FIXTURES / "purity", scan_paths=scan,
                        gating_roots=roots,
                        locks_dir=tmp_path)
    return run_lint(config, families=("purity",))


@pytest.fixture()
def gated(tmp_path):
    return _report(("gatemod.py",), GATE_ROOTS, tmp_path)


def test_rng_draw_reachable_from_suspend_fires_g01(gated):
    g01 = by_rule(gated)["G01"]
    assert len(g01) == 1
    assert g01[0].line == mark_line(GATEMOD, "g01-rng-draw")
    # the finding names the synchronous call chain it followed
    assert "GatedClock.suspend" in g01[0].message


def test_signal_write_reachable_from_gate_fires_g02(gated):
    g02 = by_rule(gated)["G02"]
    assert len(g02) == 1
    assert g02[0].line == mark_line(GATEMOD, "g02-signal-write")
    assert "GateController._maybe_gate" in g02[0].message


def test_force_is_sanctioned(gated):
    """Signal.force is the bit-exact replay primitive — the line that
    calls it must produce no finding."""
    line = mark_line(GATEMOD, "sanctioned-force")
    assert not any(f.line == line for f in gated.findings)


def test_scheduled_callbacks_are_not_followed(gated):
    """GatedClock._rise performs a dispatching write but is only ever
    *scheduled* (passed to schedule_at), never called synchronously
    from a gating root — event-loop delivery is ordinary kernel work,
    so no G02 may point at it."""
    assert not any("_rise" in f.message for f in gated.findings)
    assert len(gated.findings) == 2   # exactly the two marked hazards


def test_pure_gating_path_is_clean(tmp_path):
    report = _report(("puremod.py",), PURE_ROOTS, tmp_path)
    assert report.clean, [f.render() for f in report.findings]


def test_unresolvable_root_fires_g03(tmp_path):
    roots = PURE_ROOTS + (("puremod.py", "PureClock.vanished"),)
    report = _report(("puremod.py",), roots, tmp_path)
    g03 = by_rule(report).get("G03", [])
    assert len(g03) == 1
    assert "PureClock.vanished" in g03[0].message
    assert g03[0].path == "puremod.py"


def test_no_roots_configured_is_a_noop(tmp_path):
    report = _report(("gatemod.py",), (), tmp_path)
    assert report.clean


def test_typed_receiver_skips_unrelated_same_named_method(tmp_path):
    """`self.meter.sample()` resolves through the __init__ attr-type
    map to CleanMeter.sample only; the RNG-drawing NoisyProbe.sample on
    an unrelated class must not be dragged onto the gating path.  An
    untyped receiver keeps the over-approximating fallback and reports
    the draw."""
    mod = tmp_path / "typedmod.py"
    mod.write_text(
        "class NoisyProbe:\n"
        "    def sample(self, sim):\n"
        "        return sim.rng.random()\n"
        "\n\n"
        "class CleanMeter:\n"
        "    def sample(self, sim):\n"
        "        return sim.now\n"
        "\n\n"
        "class TypedClock:\n"
        "    def __init__(self):\n"
        "        self.meter = CleanMeter()\n"
        "\n"
        "    def suspend(self, sim):\n"
        "        return self.meter.sample(sim)\n"
        "\n\n"
        "class UntypedClock:\n"
        "    def __init__(self, meter):\n"
        "        self.meter = meter\n"
        "\n"
        "    def suspend(self, sim):\n"
        "        return self.meter.sample(sim)\n",
        encoding="utf-8")

    def gated_by(qualname):
        config = LintConfig(root=tmp_path, scan_paths=("typedmod.py",),
                            gating_roots=(("typedmod.py", qualname),),
                            locks_dir=tmp_path / "locks")
        return run_lint(config, families=("purity",))

    typed = gated_by("TypedClock.suspend")
    assert typed.clean, [f.render() for f in typed.findings]
    untyped = gated_by("UntypedClock.suspend")
    g01 = by_rule(untyped).get("G01", [])
    assert any("NoisyProbe.sample" in f.message for f in g01)
