"""Unit tests for the columnar TraceSet waveform container."""

import io
import pickle

import numpy as np
import pytest

from repro.trace import ChannelView, TraceSet


def _ts():
    """Two analog channels on one grid + one digital channel."""
    ts = TraceSet()
    ts.add_grid("t", [0.0, 1.0, 2.0, 3.0, 4.0])
    ts.add_channel("v", [0.0, 1.0, 2.0, 1.0, 0.5], grid="t")
    ts.add_channel("i", [0.0, 0.1, 0.2, 0.3, 0.4], grid="t")
    ts.add_grid("gate", [0.0, 1.5, 3.5])
    ts.add_channel("gate", [False, True, False], grid="gate")
    ts.meta["v_ref"] = 3.0
    return ts


def _digital(name, times, values):
    """A TraceSet holding one digital channel on its own grid."""
    return TraceSet().add_grid(name, times).add_channel(name, values,
                                                        grid=name)


def _columns(view):
    """A digital view's change list as ``(times, values)`` lists."""
    return list(view.times), list(view.values)


class TestConstruction:
    def test_channels_and_grids(self):
        ts = _ts()
        assert ts.channels == ["v", "i", "gate"]
        assert ts.grids == ["t", "gate"]
        assert ts.grid_of("v") == "t"
        assert ts.grid_of("gate") == "gate"
        assert "v" in ts and "nope" not in ts
        assert len(ts) == 3
        assert ts.n_samples("v") == 5
        assert ts.n_samples("gate") == 3

    def test_shared_grid_is_one_array(self):
        ts = _ts()
        assert ts.times("v") is ts.times("i")

    def test_dtypes(self):
        ts = _ts()
        assert ts.values("v").dtype == np.float64
        assert ts.values("gate").dtype == np.bool_

    def test_duplicate_names_rejected(self):
        ts = _ts()
        with pytest.raises(ValueError, match="grid 't'"):
            ts.add_grid("t", [0.0])
        with pytest.raises(ValueError, match="channel 'v'"):
            ts.add_channel("v", [0.0] * 5, grid="t")

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError, match="unknown grid"):
            TraceSet().add_channel("v", [0.0], grid="t")

    def test_length_mismatch_rejected(self):
        ts = TraceSet().add_grid("t", [0.0, 1.0])
        with pytest.raises(ValueError, match="samples"):
            ts.add_channel("v", [0.0, 1.0, 2.0], grid="t")

    def test_nbytes_counts_shared_arrays_once(self):
        ts = TraceSet()
        ts.add_grid("t", np.zeros(100))
        ts.add_channel("a", np.zeros(100), grid="t")
        assert ts.nbytes == 2 * 100 * 8


class TestChannelView:
    def test_analog_window_and_value_at(self):
        view = _ts().probe("v")
        assert isinstance(view, ChannelView)
        times, values = view.window(1.0, 3.0)
        assert list(times) == [1.0, 2.0, 3.0]
        assert list(values) == [1.0, 2.0, 1.0]
        assert view.value_at(0.5) == pytest.approx(0.5)   # interpolated
        assert view.value_at(-1.0) == 0.0                 # clamped
        assert view.value_at(9.0) == 0.5

    def test_digital_edges_columns_value_at(self):
        view = _ts().probe("gate")
        assert view.is_digital
        assert view.edges("rise") == [1.5]
        assert view.edges("fall") == [3.5]
        assert view.edges() == [1.5, 3.5]
        assert _columns(view) == ([0.0, 1.5, 3.5], [False, True, False])
        assert view.value_at(2.0) is True
        assert view.value_at(0.1) is False

    def test_unknown_channel_raises(self):
        with pytest.raises(KeyError, match="nope"):
            _ts().probe("nope")


class TestTransforms:
    def test_windowed(self):
        out = _ts().windowed(1.0, 3.0)
        assert list(out.times("v")) == [1.0, 2.0, 3.0]
        assert list(out.values("i")) == [0.1, 0.2, 0.3]
        # digital channel: held state enters at the boundary, then the
        # in-window change
        assert _columns(out.probe("gate")) == ([1.0, 1.5], [False, True])

    def test_windowed_preserves_in_window_edges_of_digital_channels(self):
        """A change inside the window must stay an *edge* (the held
        pre-window state rides in on a synthetic boundary row)."""
        ts = _digital("hl", [0.0, 3.0, 7.0], [False, True, False])
        view = ts.windowed(2.0, 6.0).probe("hl")
        assert view.edges("rise") == [3.0]
        assert _columns(view) == ([2.0, 3.0], [False, True])

    def test_windowed_keeps_digital_edge_exactly_at_t_start(self):
        """edge_count's window test is inclusive, so an edge landing on
        t_start must survive windowing."""
        ts = _digital("hl", [0.0, 1.0, 1.5], [False, True, False])
        view = ts.windowed(1.0, 2.0).probe("hl")
        assert view.edges("rise") == [1.0]
        assert _columns(view) == ([1.0, 1.0, 1.5], [False, True, False])

    def test_windowed_digital_channel_with_no_in_window_changes(self):
        ts = _digital("hl", [0.0, 3.0, 7.0], [False, True, False])
        view = ts.windowed(4.0, 6.0).probe("hl")
        assert _columns(view) == ([4.0], [True])    # held high throughout
        assert view.edges() == []
        # a window entirely before the first record stays empty
        early = _digital("hl", [5.0], [False])
        assert _columns(early.windowed(0.0, 1.0).probe("hl")) == ([], [])

    def test_decimated_keeps_first_and_last(self):
        out = _ts().decimated(2)
        assert list(out.times("v")) == [0.0, 2.0, 4.0]
        out3 = _ts().decimated(3)
        assert list(out3.times("v")) == [0.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            _ts().decimated(0)

    def test_decimated_never_thins_digital_change_lists(self):
        """Digital histories are minimal event lists: thinning them would
        delete real pulses, not lower resolution."""
        ts = TraceSet().add_grid("t", [float(i) for i in range(8)])
        ts.add_channel("v", [float(i) for i in range(8)], grid="t")
        ts.add_grid("gate", [0.0, 1.0, 2.0, 3.0])
        ts.add_channel("gate", [False, True, False, True], grid="gate")
        out = ts.decimated(2)
        assert list(out.times("v")) == [0.0, 2.0, 4.0, 6.0, 7.0]
        assert _columns(out.probe("gate")) == \
            ([0.0, 1.0, 2.0, 3.0], [False, True, False, True])
        assert out.probe("gate").edges("rise") == [1.0, 3.0]

    def test_compacted_drops_idle_duplicate_rows(self):
        ts = TraceSet()
        # rows 2 and 4 repeat both the time and every value (idle lane)
        ts.add_grid("t", [0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        ts.add_channel("v", [0.0, 5.0, 5.0, 7.0, 7.0, 8.0], grid="t")
        out = ts.compacted()
        assert list(out.times("v")) == [0.0, 1.0, 2.0, 3.0]
        assert list(out.values("v")) == [0.0, 5.0, 7.0, 8.0]

    def test_compacted_keeps_same_time_rows_with_new_values(self):
        """A zero-width excursion is data, not an idle duplicate."""
        ts = TraceSet()
        ts.add_grid("t", [0.0, 1.0, 1.0, 2.0])
        ts.add_channel("v", [0.0, 5.0, 6.0, 7.0], grid="t")
        assert ts.compacted() == ts

    def test_compacted_considers_every_channel_on_the_grid(self):
        ts = TraceSet()
        ts.add_grid("t", [0.0, 1.0, 1.0])
        ts.add_channel("a", [0.0, 5.0, 5.0], grid="t")
        ts.add_channel("b", [0.0, 2.0, 3.0], grid="t")   # b changed
        assert ts.compacted() == ts


class TestSerialization:
    def test_npz_round_trip(self, tmp_path):
        ts = _ts()
        path = tmp_path / "trace.npz"
        ts.to_npz(path)
        assert TraceSet.from_npz(path) == ts

    def test_arrays_round_trip_with_prefix(self):
        ts = _ts()
        manifest, arrays = ts.to_arrays(prefix="trace_")
        assert all(k.startswith("trace_") for k in arrays)
        import json
        manifest = json.loads(json.dumps(manifest))   # JSON-safe
        assert TraceSet.from_arrays(manifest, arrays,
                                    prefix="trace_") == ts

    def test_jsonable_round_trip_is_bit_exact(self):
        import json
        ts = _ts()
        payload = json.loads(json.dumps(ts.to_jsonable()))
        clone = TraceSet.from_jsonable(payload)
        assert clone == ts
        assert clone.values("gate").dtype == np.bool_

    def test_pickle_round_trip(self):
        ts = _ts()
        assert pickle.loads(pickle.dumps(ts)) == ts

    def test_eq_detects_value_and_structure_changes(self):
        a, b = _ts(), _ts()
        assert a == b
        b.values("v")[0] = 99.0
        assert a != b
        c = TraceSet().add_grid("t", [0.0])
        assert a != c
        assert a != object()

    @staticmethod
    def _one(value):
        return (TraceSet().add_grid("t", [0.0])
                .add_channel("v", [value], grid="t"))

    def test_eq_tells_signed_zeros_apart(self):
        assert self._one(-0.0) != self._one(0.0)
        assert self._one(-0.0) == self._one(-0.0)

    def test_eq_holds_for_a_nan_channel(self):
        a = self._one(float("nan"))
        assert a == a
        assert a == self._one(float("nan"))

    def test_meta_round_trips_everywhere(self, tmp_path):
        import json
        ts = _ts()
        assert TraceSet.from_npz(self._save(ts, tmp_path)).meta == ts.meta
        manifest, arrays = ts.to_arrays()
        assert TraceSet.from_arrays(manifest, arrays).meta == ts.meta
        payload = json.loads(json.dumps(ts.to_jsonable()))
        assert TraceSet.from_jsonable(payload).meta == ts.meta
        assert pickle.loads(pickle.dumps(ts)).meta == ts.meta
        # transforms carry it, eq compares it
        assert ts.windowed(0, 4).meta == ts.meta
        assert ts.decimated(2).meta == ts.meta
        assert ts.compacted().meta == ts.meta
        other = _ts()
        other.meta["v_ref"] = 2.5
        assert ts != other

    @staticmethod
    def _save(ts, tmp_path):
        path = tmp_path / "meta.npz"
        ts.to_npz(path)
        return path


class TestVcdExport:
    def test_to_vcd_emits_wires_and_reals(self, tmp_path):
        path = tmp_path / "trace.vcd"
        _ts().to_vcd(str(path))
        text = path.read_text()
        assert "$var real 64" in text     # analog channels
        assert "$var wire 1" in text      # digital channel
        assert "$timescale 1ps $end" in text

    def test_write_vcd_accepts_views_directly(self):
        from repro.sim.vcd import write_vcd
        out = io.StringIO()
        write_vcd(out, _ts().views(["v", "gate"]))
        text = out.getvalue()
        assert text.count("$var") == 2
