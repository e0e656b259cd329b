from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fraudsift import DataError, temporal
from fraudsift.temporal import (BURST_SIGNIFICANCE, MAX_BINS, SegmentHistograms, extreme_slopes,
                                histogram_segments, profile_payloads,
                                simulate_triangle_attack, spike_weights,
                                time_obstruction_bound)
from oracles import (BurstPair, DropInfo, SpikeProfile, TimeSeriesHist, awakening_point,
                     burst_mass, drop_edge_weight, phi_involvement)


def hist_from_counts(counts) -> TimeSeriesHist:
    counts = np.asarray(counts, dtype=np.int64)
    return TimeSeriesHist(np.arange(len(counts), dtype=np.float64), counts, 1.0)


def build_histogram(timestamps) -> TimeSeriesHist:
    """histogram_segments of one sink's timestamps."""
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    return oracles.segment_hist(histogram_segments(ts, np.array([0, ts.size])), 0)


def kept_histograms(counts, lo, width):
    """SegmentHistograms of segments with the given bin counts, first bin
    edges and bin widths, every segment spanning more than one timestamp."""
    dense = np.concatenate([np.asarray(c, dtype=np.int64) for c in counts])
    bin_indptr = np.concatenate(([0], np.cumsum([len(c) for c in counts])))
    ids = np.flatnonzero(dense)
    return SegmentHistograms.from_bins(bin_indptr, ids, dense[ids], np.asarray(lo, dtype=float),
                                       np.asarray(width, dtype=float),
                                       np.ones(len(counts), dtype=bool))


def unit_segment(counts):
    """One segment of the given bin counts with centers 0, 1, 2, ..., and its
    events placed on the bin centers."""
    counts = np.asarray(counts, dtype=np.int64)
    return kept_histograms([counts], [-0.5], [1.0]), \
        np.repeat(np.arange(counts.size, dtype=np.float64), counts), np.array([0, counts.sum()])


def spikes(counts, significance=BURST_SIGNIFICANCE):
    """The oracle's multiburst and max_drop of a histogram with centers 0, 1,
    2, ..., after checking that spike_weights keeps the same burst pairs and
    drop."""
    hist = hist_from_counts(counts)
    pairs, drop = oracles.multiburst(hist, significance), oracles.max_drop(hist)
    profiled = len(hist) >= 3 and hist.counts.sum() >= 3

    def points(starts, ends):
        return [((float(x), float(hist.counts[x])), (float(y), float(hist.counts[y])))
                for x, y in zip(starts.tolist(), ends.tolist())]

    with mock.patch.object(temporal, "BURST_SIGNIFICANCE", significance):
        *_, (_, a, m), (_, b, d) = spike_weights(*unit_segment(counts))
    assert sorted(points(a, m)) == [(p.awakening, p.burst) for p in pairs if profiled]
    assert points(b, d) == ([(drop.burst, drop.dying)] if profiled and drop else [])
    return pairs, drop


def multiburst(hist, significance=BURST_SIGNIFICANCE):
    """The oracle's burst pairs of a unit-spaced histogram, checked against spike_weights."""
    return spikes(hist.counts, significance)[0]


def max_drop(hist):
    """The oracle's max drop of a unit-spaced histogram, checked against spike_weights."""
    return spikes(hist.counts)[1]


def oracle_bin_count(ts: np.ndarray) -> int:
    # independent re-statement of both binning rules
    n = len(ts)
    k_sturges = math.ceil(math.log2(n)) + 1
    iqr = float(np.percentile(ts, 75) - np.percentile(ts, 25))
    span = float(ts.max() - ts.min())
    k_fd = math.ceil(span / (2 * iqr * n ** (-1 / 3))) if iqr > 0 else 0
    return max(k_sturges, k_fd)


# -- histogram ------------------------------------------------------------


def test_histogram_sturges_floor_at_1024():
    ts = np.arange(1024) * 10
    h = build_histogram(ts)
    assert len(h) >= 11
    assert len(h) == oracle_bin_count(ts)


def test_histogram_zero_iqr_falls_back_to_sturges():
    ts = np.concatenate((np.full(1020, 500), [0, 1000, 500, 500]))
    assert float(np.percentile(ts, 75) - np.percentile(ts, 25)) == 0.0
    h = build_histogram(ts)
    assert len(h) == 11  # ceil(log2(1024)) + 1


def test_histogram_single_timestamp():
    h = build_histogram([42])
    assert len(h) == 1
    assert h.counts.tolist() == [1]
    assert h.bin_width == 1.0


def test_histogram_identical_timestamps_single_bin():
    h = build_histogram([7, 7, 7])
    assert len(h) == 1 and h.counts[0] == 3


def test_histogram_two_gaussians_matches_rule_oracle():
    rng = np.random.default_rng(42)
    ts = np.concatenate((rng.normal(10_000, 500, 5000),
                         rng.normal(50_000, 800, 5000))).astype(np.int64)
    h = build_histogram(ts)
    k = oracle_bin_count(ts)
    assert len(h) == k
    counts, _ = np.histogram(ts, bins=k, range=(ts.min(), ts.max()))
    assert np.array_equal(h.counts, counts)
    assert h.counts.sum() == len(ts)


# ties, spread and far outliers: Sturges, Freedman-Diaconis and the MAX_BINS cap all occur
segment = st.one_of(
    st.lists(st.integers(0, 40), min_size=0, max_size=60),
    st.lists(st.integers(0, 3), min_size=3, max_size=60).map(lambda xs: xs + [10**9]),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(segment, min_size=1, max_size=8))
@example([[7, 7, 7], [0, 1, 5], [], [42]])
@example([[0] * 10 + [1] * 10 + [10**9]])
@example([[0] * 1020 + [0, 1000, 500, 500]])
def test_segmented_histograms_match_per_segment_oracle(segments):
    times = np.concatenate([np.sort(np.asarray(seg, dtype=np.float64)) for seg in segments])
    indptr = np.concatenate(([0], np.cumsum([len(seg) for seg in segments])))
    hists = histogram_segments(times, indptr)
    assert hists.counts.sum() == times.size
    for s, seg in enumerate(segments):
        got = oracles.segment_hist(hists, s)
        if not seg:
            assert len(got) == 0
            continue
        want = oracles.histogram(seg)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.bin_width == want.bin_width
        assert 1 <= len(got) <= MAX_BINS


def kept_bins(counts) -> list[int]:
    """Every non-empty bin, and the first, second-to-last and last bin of each
    run of empty bins, by a scan over the bins."""
    kept, k = [], 0
    while k < len(counts):
        end = k
        while counts[k] == 0 and end + 1 < len(counts) and counts[end + 1] == 0:
            end += 1
        kept += sorted({k, max(end - 1, k), end})
        k = end + 1
    return kept


def test_capped_segment_stores_only_kept_bins():
    # the MAX_BINS cap fires, and two of its bins hold events; a dense
    # histogram would store all 65,536 bins
    ts = np.array([0, 1, 1.001, 1.002, 1.003, 1.004, 1e9])
    hists = histogram_segments(ts, np.array([0, ts.size]))
    assert hists.n_bins().tolist() == [MAX_BINS]
    nonempty = np.count_nonzero(hists.counts)
    assert nonempty == 2
    assert hists.bins.size <= 3 * (nonempty + 1)
    assert oracles.segment_hist(hists, 0).counts.tobytes() == \
        oracles.histogram(ts).counts.tobytes()


def test_histogram_clamps_bin_count_at_max_bins():
    ts = [0] * 10 + [1] * 10 + [10**9]
    assert len(build_histogram(ts)) == MAX_BINS == len(oracles.histogram(ts))


# -- awakening ------------------------------------------------------------


def test_awakening_picks_farthest_point_from_anchor_line():
    h = hist_from_counts([0, 0, 0, 10])
    # distances to the line (0,0)-(3,10): 0.958 at t=1, 1.916 at t=2
    d1 = abs(10 * 1 - 3 * 0) / math.hypot(10, 3)
    d2 = abs(10 * 2 - 3 * 0) / math.hypot(10, 3)
    assert d1 == pytest.approx(0.958, abs=1e-3)
    assert d2 == pytest.approx(1.916, abs=1e-3)
    assert awakening_point(h, 0, 3) == (2.0, 0.0)


def test_awakening_linear_ramp_ties_to_first_interior_point():
    h = hist_from_counts([0, 5, 10, 15, 20])
    assert awakening_point(h, 0, 4) == (1.0, 5.0)


def test_awakening_window_too_short():
    h = hist_from_counts([1, 2, 3])
    with pytest.raises(DataError, match="window too short"):
        awakening_point(h, 0, 1)


def test_awakening_single_spike_sits_at_base():
    counts = [1, 1, 2, 1, 1, 3, 9, 30, 80, 25, 5, 2, 1]
    h = hist_from_counts(counts)
    m = int(np.argmax(counts))
    # oracle: explicit point-to-line distance per candidate
    t0, c0, tm, cm = 0.0, counts[0], float(m), counts[m]
    best, best_d = None, -1.0
    for t in range(m):
        d = abs((cm - c0) * t - (tm - t0) * counts[t] + tm * c0 - cm * t0) \
            / math.hypot(cm - c0, tm - t0)
        if d > best_d:
            best, best_d = t, d
    got = awakening_point(h, 0, len(counts) - 1)
    assert got == (float(best), float(counts[best]))
    assert best in (6, 7)  # the base of the spike


# -- multiburst -----------------------------------------------------------


def test_multiburst_flat_series_is_empty():
    assert multiburst(hist_from_counts([4, 4, 4, 4, 4])) == ()


def test_multiburst_clean_spike_single_pair():
    h = hist_from_counts([1, 1, 1, 50, 1, 1, 1])
    pairs = multiburst(h)
    assert len(pairs) == 1
    assert pairs[0].burst == (3.0, 50.0)
    assert pairs[0].awakening == (2.0, 1.0)
    assert pairs[0].altitude == 49.0
    assert pairs[0].slope == 49.0


def test_multiburst_fifty_percent_altitude_filter():
    h = hist_from_counts([2, 2, 100, 1, 1, 30, 1, 1])
    raw = multiburst(h, significance=0.0)
    assert [(p.awakening, p.burst) for p in raw] == [
        ((1.0, 2.0), (2.0, 100.0)), ((4.0, 1.0), (5.0, 30.0))]
    kept = multiburst(h)  # 29 < 0.5 * 98
    assert [(p.awakening, p.burst) for p in kept] == [((1.0, 2.0), (2.0, 100.0))]


def test_multiburst_pairs_are_valid_and_disjoint():
    rng = np.random.default_rng(9)
    for _ in range(25):
        counts = rng.integers(0, 60, rng.integers(8, 40))
        pairs = multiburst(hist_from_counts(counts), significance=0.0)
        spans = []
        for p in pairs:
            assert p.awakening[0] < p.burst[0]
            assert p.burst[1] >= p.awakening[1]
            assert p.altitude > 0 and p.slope > 0
            spans.append((p.awakening[0], p.burst[0]))
        spans.sort()
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2  # burst windows do not overlap


# -- max drop --------------------------------------------------------------


def test_max_drop_absent_without_decline():
    assert max_drop(hist_from_counts([1, 5, 9, 9, 9])) is None
    assert max_drop(hist_from_counts([2, 2])) is None


def test_max_drop_elbow_after_fall():
    h = hist_from_counts([2, 100, 5, 4, 4, 4])
    d = max_drop(h)
    assert d is not None
    assert d.burst == (1.0, 100.0)
    assert d.dying == (2.0, 5.0)
    assert d.fall == 95.0
    assert d.slope == 95.0


def test_max_drop_keeps_largest_fall():
    h = hist_from_counts([100, 20, 25, 90, 30, 28])
    d = max_drop(h)
    assert d.burst == (0.0, 100.0)
    assert d.dying == (1.0, 20.0)
    assert d.fall == 80.0


# -- every segment at once --------------------------------------------------


# runs that stress the recursion's tie rules: plateaus, linear ramps (every
# point on the anchor line), and small values with equal maxima and falls
run = st.one_of(
    st.tuples(st.integers(0, 30), st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
    st.tuples(st.integers(0, 60), st.integers(-4, 4), st.integers(2, 40)).map(
        lambda t: [max(t[0] + t[1] * k, 0) for k in range(t[2])]),
    st.lists(st.integers(0, 4), min_size=1, max_size=40),
    st.lists(st.integers(0, 500), min_size=1, max_size=40),
)
# empty runs: up to 3 bins are kept whole, longer ones keep their first,
# second-to-last and last bin
gap = st.one_of(st.integers(1, 4), st.integers(5, 3000)).map(lambda n: [0] * n)
# runs and gaps in any order, so gaps also open and close a segment, sit
# before a burst (where an awakening at a gap's last bin ends the next
# window at its second-to-last) and after one
bin_counts = st.lists(st.one_of(run, gap), min_size=1, max_size=12).map(
    lambda rs: sum(rs, [])).filter(lambda c: len(c) >= 3)
# MAX_BINS-capped: two clusters of bins around one long gap
capped_counts = st.tuples(bin_counts, bin_counts).filter(
    lambda t: len(t[0]) + len(t[1]) <= MAX_BINS).map(
    lambda t: t[0] + [0] * (MAX_BINS - len(t[0]) - len(t[1])) + t[1])
# (first timestamp, bin width, event offset from the bin center in widths);
# offset 0 puts events on the centers that bound the burst windows. At
# 2^40 a bin width of 0.01 is within rounding of the centers times counts,
# so such segments keep every bin.
geometry = st.tuples(st.sampled_from([0.0, 1.5e9 + 17, 2.0 ** 40]),
                     st.sampled_from([1.0, 0.37, 86400 / 7, 0.01]),
                     st.sampled_from([-0.5, -0.25, 0.0, 0.25]))
segment_counts = st.tuples(st.one_of(bin_counts, bin_counts, bin_counts, capped_counts),
                           geometry)


def packed_histograms(segments):
    """SegmentHistograms holding the given bin counts, and the sorted event
    times of each segment, placed by bin at a fixed offset from its center."""
    counts = [np.asarray(c, dtype=np.int64) for c, _ in segments]
    lo, width, offset = (np.asarray(x, dtype=np.float64) for x in zip(*(g for _, g in segments)))
    hists = kept_histograms(counts, lo, width)
    times = np.concatenate([np.repeat(oracles.segment_hist(hists, s).centers
                                      + offset[s] * width[s], c)
                            for s, c in enumerate(counts)])
    indptr = np.concatenate(([0], np.cumsum([c.sum() for c in counts])))
    return hists, times, indptr


def per_segment_weights(hists, times, indptr):
    """spike_weights' outputs from the oracle's spike_profile, one segment at a time."""
    n = indptr.size - 1
    event_w, phi_total, drop_w = np.zeros(times.size), np.zeros(n), np.zeros(n)
    for s in range(n):
        lo, hi = indptr[s], indptr[s + 1]
        hist = oracles.segment_hist(hists, s)
        if hi - lo < 3 or len(hist) < 3:
            continue
        profile, w = oracles.spike_profile(hist, times[lo:hi])
        if w is not None:
            event_w[lo:hi] = w
            phi_total[s] = profile.phi_denominator
        drop_w[s] = drop_edge_weight(profile.max_drop)
    return event_w, phi_total, drop_w


@settings(max_examples=100, deadline=None)
@given(st.lists(segment_counts, min_size=1, max_size=8))
# max_drop's tie: falls of 2 at slopes 2 and 1; the first in pre-order wins
@example([([2, 0, 2, 1, 0, 1], (0.0, 1.0, 0.0)), ([0, 5] * 300, (0.0, 1.0, 0.0)),
          ([5, 0, 5, 3, 0, 3] * 100, (0.0, 1.0, 0.0))])
@example([([1, 2, 3, 4, 5, 4, 3, 2, 1], (0.0, 1.0, 0.0)), ([3, 3, 3], (0.0, 1.0, 0.0)),
          ([9, 0, 9, 0, 9], (1.5e9 + 17, 0.37, -0.5)),
          ([(k * 7) % 11 for k in range(600)], (0.0, 0.37, 0.25)),
          ([1] * 513, (0.0, 1.0, -0.25))])
# gaps of 1, 2, 3 and 4 bins, a linear rise out of a gap (every point on the
# anchor line) and gaps at both ends of a segment
@example([([5, 0, 5, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0, 0, 2], (0.0, 1.0, 0.0)),
          ([0] * 40 + [1, 2, 3, 4] + [0] * 7 + [6], (1.5e9 + 17, 0.37, 0.25)),
          ([0] * 9 + [7] + [0] * 9, (0.0, 86400 / 7, -0.25))])
# the awakening at a gap's last bin, the next window ending at its
# second-to-last, and a MAX_BINS-capped segment
@example([([8, 1] + [0] * 50 + [30, 2], (0.0, 1.0, 0.0)),
          ([6, 4, 9] + [0] * (MAX_BINS - 5) + [3, 1], (1.5e9 + 17, 0.37, 0.0))])
# rounding ties the distances of the bins of this gap: without keeping every
# bin of such a segment, the drop would end at another bin
@example([([2854, 0, 0, 0, 0, 0, 0, 2861], (2.0 ** 40, 0.01, 0.0))])
def test_spike_weights_match_per_segment_spike_profile(segments):
    # one frontier over the kept bins of every segment, checked against the
    # oracle's object model over every bin
    hists, times, indptr = packed_histograms(segments)
    got = spike_weights(hists, times, indptr)
    want = per_segment_weights(hists, times, indptr)
    for name, g, w in zip(("event_w", "phi_total", "drop_w"), got, want):
        assert g.tobytes() == w.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(st.lists(bin_counts, min_size=1, max_size=4))
def test_kept_bins_follow_the_empty_run_rule(counts):
    hists = kept_histograms(counts, np.zeros(len(counts)), np.ones(len(counts)))
    for s, c in enumerate(counts):
        first = hists.bin_indptr[s]
        inside = (hists.bins >= first) & (hists.bins < hists.bin_indptr[s + 1])
        assert (hists.bins[inside] - first).tolist() == kept_bins(c)
        assert hists.counts[inside].tolist() == [c[k] for k in kept_bins(c)]


@settings(max_examples=50, deadline=None)
@given(st.lists(segment, min_size=1, max_size=6))
@example([[], [42], [1, 2], [7, 7, 7], [0, 1, 5], [0, 0, 3, 3, 3, 9, 9, 12, 40]])
def test_profile_payloads_match_oracle(segments):
    times = np.concatenate([np.sort(np.asarray(seg, dtype=np.float64)) for seg in segments])
    indptr = np.concatenate(([0], np.cumsum([len(seg) for seg in segments])))
    ids = [f"v{s}" for s in range(len(segments))]
    got = profile_payloads(ids, times, indptr)
    assert got == [oracles.profile_payload(i, seg) for i, seg in zip(ids, segments)]


# -- involvement -----------------------------------------------------------


def single_pair_profile() -> SpikeProfile:
    pair = BurstPair((2.0, 1.0), (5.0, 30.0))
    return SpikeProfile((pair,), None, 0.0)


def test_phi_full_set_is_one():
    profile = single_pair_profile()
    times = [1, 2, 3, 4, 5, 9]
    assert phi_involvement(profile, times, times) == pytest.approx(1.0)


def test_phi_outside_burst_windows_is_zero():
    profile = single_pair_profile()
    all_times = [1, 3, 4, 9, 10]
    assert phi_involvement(profile, [1, 9, 10], all_times) == 0.0


def test_phi_half_coverage():
    profile = single_pair_profile()
    inside = [2, 2, 3, 3, 4, 4, 5, 5, 3, 4]      # 10 in-window events
    outside = [0, 1, 9, 10]
    t_all = inside + outside
    t_sub = inside[:5] + [0, 9]                   # half the in-window mass
    assert phi_involvement(profile, t_sub, t_all) == pytest.approx(0.5)


def test_phi_inconsistent_sets_error():
    profile = single_pair_profile()
    with pytest.raises(DataError, match="inconsistent timestamp sets"):
        phi_involvement(profile, [3, 3], [3, 4])


def test_phi_zero_denominator_degenerates_to_zero():
    profile = SpikeProfile((), None, 0.0)
    assert phi_involvement(profile, [1], [1, 2]) == 0.0


def test_burst_mass_monotone_under_inclusion():
    rng = np.random.default_rng(4)
    counts = np.concatenate((rng.integers(0, 5, 10), [40], rng.integers(0, 5, 10)))
    hist = hist_from_counts(counts)
    pairs = multiburst(hist)
    profile = SpikeProfile(pairs, None, 0.0)
    times = rng.uniform(0, len(counts) - 1, 200)
    for _ in range(10):
        k = rng.integers(0, 200)
        sub = rng.choice(times, k, replace=False)
        assert burst_mass(profile, sub) <= burst_mass(profile, times) + 1e-12


# -- drop weighting ----------------------------------------------------------


def test_drop_edge_weight_examples():
    assert drop_edge_weight(None) == 0.0
    unit = DropInfo((0.0, 2.0), (1.0, 1.0))  # fall 1, slope 1
    assert drop_edge_weight(unit) == pytest.approx(1.0)
    d = DropInfo((0.0, 95.0), (3600.0, 0.0))  # fall 95 over one hour
    assert drop_edge_weight(d) == pytest.approx(math.log2(1 + 95 * 95 / 3600))
    assert drop_edge_weight(d) == pytest.approx(1.810, abs=1e-3)
    # spike_weights' drop weight of a fall of 95 over one bin
    drop_w = spike_weights(*unit_segment([2, 100, 5, 4, 4, 4]))[2]
    assert drop_w.tolist() == [math.log2(1 + 95 * 95)]


# -- time shift invariance ------------------------------------------------------


def test_time_shift_invariance():
    rng = np.random.default_rng(17)
    ts = np.sort(rng.integers(0, 50_000, 500))
    shift = 123_456
    p1, p2 = profile_payloads(["a", "b"], np.concatenate((ts, ts + shift)).astype(np.float64),
                              np.array([0, ts.size, 2 * ts.size]))
    assert [c for _, c in p1["bins"]] == [c for _, c in p2["bins"]]
    assert p1["bin_width"] == pytest.approx(p2["bin_width"])
    assert len(p1["pairs"]) == len(p2["pairs"]) > 0
    for a, b in zip(p1["pairs"], p2["pairs"]):
        assert a["altitude"] == pytest.approx(b["altitude"])
        assert a["slope"] == pytest.approx(b["slope"])
        assert b["awakening"][0] - a["awakening"][0] == pytest.approx(shift, rel=1e-9)
    assert p1["drop"]["fall"] == pytest.approx(p2["drop"]["fall"])
    assert p1["drop"]["slope"] == pytest.approx(p2["drop"]["slope"])
    assert p1["phi_denominator"] == pytest.approx(p2["phi_denominator"])
    sub = ts[::3]
    _, o1 = oracles.build_profile(ts)
    _, o2 = oracles.build_profile(ts + shift)
    assert phi_involvement(o1, sub, ts) == pytest.approx(
        phi_involvement(o2, sub + shift, ts + shift))


# -- time obstruction bound -------------------------------------------------------


def test_obstruction_bound_plugin_arithmetic():
    tau, height = time_obstruction_bound(200, 1.0, 10.0, 10.0)
    assert tau == pytest.approx(math.sqrt(80), rel=1e-12)
    assert height == pytest.approx(math.sqrt(2 * 200 * 1 * 100 / 20), rel=1e-12)


def test_obstruction_bound_symmetric_simplification():
    n, dt, s = 377.0, 3.0, 7.5
    tau, _ = time_obstruction_bound(n, dt, s, s)
    assert tau == pytest.approx(2 * math.sqrt(n * dt / s), rel=1e-12)


def test_obstruction_bound_rejects_nonpositive():
    with pytest.raises(DataError):
        time_obstruction_bound(0, 1, 1, 1)
    with pytest.raises(DataError):
        time_obstruction_bound(10, 1, -2, 1)


def test_fast_attacks_show_abnormal_slopes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = float(rng.integers(100, 5000))
        dt = float(rng.choice([1, 10, 60, 600]))
        s1 = float(rng.uniform(0.5, 30)) / dt
        s2 = float(rng.uniform(0.5, 30)) / dt
        tau_min, _ = time_obstruction_bound(n, dt, s1, s2)
        duration = rng.uniform(0.3, 0.95) * tau_min
        if duration < 2 * dt:
            continue
        counts = simulate_triangle_attack(n, duration, dt,
                                          rise_fraction=float(rng.uniform(0.2, 0.8)))
        assert counts.sum() == pytest.approx(n)
        rise, fall = extreme_slopes(counts, dt)
        assert rise > s1 or fall > s2
