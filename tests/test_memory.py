"""Traced memory of each stage of detect, in bytes per event.

Each bound is about 1.5 times what the stage takes on
bench_graph(200_000, seed=1): the peak of the memory it allocates, its
outputs included, over the inputs that were live before it. The largest
graph one machine can take is set by these peaks, so a stage that goes back
to holding a dozen event-length temporaries at once fails here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fraudsift import DetectorConfig, bench_graph, read_delimited, write_delimited
from fraudsift.contrast import ContrastState, SignalContext
from fraudsift.detector import matricize, svd_seeds
from fraudsift.temporal import histogram_segments

# traced peak per event; measured 122, 31, 53, 42 and 36
BOUNDS = {"read": 180, "histograms": 47, "context": 80, "matricize": 64, "seeding": 54}


def traced_peak(fn, *args, **kwargs):
    """fn's result, and the peak of the memory traced while it ran."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stage_peaks(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "bench.csv"
    write_delimited(bench_graph(200_000, seed=1)[0], path)
    config = DetectorConfig()
    peaks = {}
    graph, peaks["read"] = traced_peak(read_delimited, path)
    _, peaks["histograms"] = traced_peak(histogram_segments,
                                         graph.sink_event_time.astype(np.float64),
                                         graph.sink_event_indptr)
    context, peaks["context"] = traced_peak(SignalContext, graph, config)
    (design, _), peaks["matricize"] = traced_peak(matricize, graph, time_bin=config.time_bin,
                                                  column_weights=context.sigma)
    _, peaks["seeding"] = traced_peak(svd_seeds, design, config.num_seeds,
                                      cap_exponent=config.cap_exponent)
    return {stage: peak / graph.n_events for stage, peak in peaks.items()}


@pytest.mark.parametrize("stage", list(BOUNDS))
def test_stage_peak_per_event_stays_bounded(stage_peaks, stage):
    assert stage_peaks[stage] < BOUNDS[stage], f"{stage_peaks[stage]:.1f} bytes per event"


def test_ceiling_peak_scales_with_rows_and_sinks_not_entries(make_graph):
    # a dense block, a quarter peeled: a copy of the live rows' entries
    # (12 bytes each) would cost far more than the bound
    g = make_graph(n_users=300, n_objects=200, n_events=60_000, seed=5)
    state = ContrastState(SignalContext(g, DetectorConfig()), np.arange(g.n_users))
    for _ in range(g.n_users // 4):
        state._remove_local(state.argmin_active_score())
    rows, sinks = state.rows.size, state.P.size
    assert state.counts.nnz > 40 * (rows + sinks)
    _, peak = traced_peak(state.ceiling)
    # measured 23 bytes per row and sink
    assert peak < 64 * (rows + sinks), f"{peak / (rows + sinks):.1f} bytes per row and sink"
