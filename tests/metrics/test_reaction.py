"""The single-sample reaction harness behind Table I.

:func:`measure_one` takes one latency sample at one stimulus offset;
``run_table1`` sweeps the offsets and keeps the worst.  These tests pin
what that reduction relies on: an async sample does not depend on the
offset, and a sync sample reacts on a clock edge, so moving the stimulus
later in the period shortens the latency by exactly that much.
"""

import pytest

from repro.metrics.reaction import CONDITIONS, measure_one
from repro.sim import NS

FREQUENCY = 333e6
PERIOD = 1.0 / FREQUENCY
N_OFFSETS = 8
#: the sync output stage adds at most this beyond the 2.5-period bound
OUTPUT_DELAY = 0.1 * NS


@pytest.mark.parametrize("condition", CONDITIONS)
def test_async_sample_is_phase_free(condition):
    samples = {measure_one("async", None, condition, offset)
               for offset in (0.0, 0.7 * NS, 1.3 * NS, 2.9 * NS)}
    assert len(samples) == 1, samples


@pytest.mark.parametrize("condition", CONDITIONS)
def test_sync_sample_reacts_on_a_clock_edge(condition):
    offsets = [PERIOD * i / N_OFFSETS for i in range(N_OFFSETS)]
    samples = [measure_one("sync", FREQUENCY, condition, offset)
               for offset in offsets]
    # the stimulus moves later, the reacting edge does not
    landing = [sample + offset for sample, offset in zip(samples, offsets)]
    assert landing == pytest.approx([landing[0]] * N_OFFSETS, abs=1e-12)
    # the worst case is the stimulus right at an edge: 2.5 periods
    assert max(samples) == samples[0]
    assert 2.5 * PERIOD <= samples[0] + 1e-12 <= 2.5 * PERIOD + OUTPUT_DELAY


def test_unknown_condition_is_refused():
    with pytest.raises(ValueError, match="unknown condition"):
        measure_one("async", None, "XX", 0.0)
