"""Per-sink timestamp histograms and spike geometry: bursts, drops, burst weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DataError, concat_ranges

# Cap on a histogram's bin count, a memory guard for heavy-tailed spacings.
# It is no rare case: on bench_graph(1_000_000, seed=1) it fires on 196
# sinks, which hold 12.8M of the 13.3M bins. Changing this cap, or the bin
# rule, changes every output that reads the histograms.
MAX_BINS = 65536
# Segments with more bins than this keep spike_profile's per-segment
# recursion; the rest advance through it together, one level per pass.
# Bin counts are bimodal: a sink of the benchmark graphs has at most 230
# bins or more than 2048, so any value from 256 to 1024 makes the same split.
FRONTIER_MAX_BINS = 512
# Most bins one frontier pass takes; the pass's temporaries grow with them.
FRONTIER_CHUNK_BINS = 1 << 15
# A burst pair is kept when its altitude reaches this share of the largest one.
BURST_SIGNIFICANCE = 0.5


@dataclass(frozen=True)
class TimeSeriesHist:
    """Uniform-width histogram of one sink's event timestamps."""

    centers: np.ndarray
    counts: np.ndarray
    bin_width: float

    def __len__(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class BurstPair:
    """An (awakening, burst) point pair with the rise slope between them."""

    awakening: tuple[float, float]
    burst: tuple[float, float]

    @property
    def altitude(self) -> float:
        return self.burst[1] - self.awakening[1]

    @property
    def slope(self) -> float:
        return self.altitude / (self.burst[0] - self.awakening[0])


@dataclass(frozen=True)
class DropInfo:
    """A (burst, dying) point pair describing one decline."""

    burst: tuple[float, float]
    dying: tuple[float, float]

    @property
    def fall(self) -> float:
        return self.burst[1] - self.dying[1]

    @property
    def slope(self) -> float:
        return self.fall / (self.dying[0] - self.burst[0])


@dataclass(frozen=True)
class SpikeProfile:
    """Significant burst pairs and the maximal drop of one sink's time series."""

    pairs: tuple[BurstPair, ...]
    max_drop: DropInfo | None
    phi_denominator: float


@dataclass(frozen=True)
class SegmentHistograms:
    """Histograms of many time-sorted segments, packed end to end.

    Segment s owns bins ``bin_indptr[s]:bin_indptr[s + 1]`` of ``counts``;
    an empty segment owns no bins. Bin centers are built per segment on
    access, from the segment's first timestamp and bin width.
    """

    bin_indptr: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    widths: np.ndarray
    spread: np.ndarray  # the segment spans more than one timestamp

    def n_bins(self) -> np.ndarray:
        return np.diff(self.bin_indptr)

    def __getitem__(self, s: int) -> TimeSeriesHist:
        first, last = self.bin_indptr[s], self.bin_indptr[s + 1]
        lo, width = float(self.lo[s]), float(self.widths[s])
        if self.spread[s]:
            # linspace's edges i * width + lo, shifted by half a bin
            centers = np.arange(last - first) * width + lo + width / 2.0
        else:
            centers = np.full(last - first, lo)
        return TimeSeriesHist(centers, self.counts[first:last], width)


def _quantile_sorted(ts: np.ndarray, starts: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """np.percentile's linear quantile of each sorted segment of length n >= 2,
    with its index arithmetic and its two-sided interpolation rule."""
    virtual = (n - 1) * q
    prev = np.floor(virtual)
    gamma = virtual - prev
    at = starts + prev.astype(np.int64)
    below, above = ts[at], ts[at + 1]
    diff = above - below
    return np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)


def histogram_segments(times: np.ndarray, indptr: np.ndarray) -> SegmentHistograms:
    """Bin every segment ``times[indptr[s]:indptr[s + 1]]`` (sorted within itself)
    with the finer of the Sturges and Freedman-Diaconis rules, in one pass.

    Bin count is max(ceil(log2 n) + 1, ceil(range / (2 * IQR * n^(-1/3)))),
    capped at MAX_BINS; a zero IQR falls back to Sturges alone, and identical
    timestamps degenerate to a single one-second bin. The quartiles, edges
    and bin assignment reproduce np.percentile and np.histogram bit for bit,
    including np.histogram's right-closed last bin.
    """
    ts = np.asarray(times, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    starts = indptr[:-1]
    n = np.diff(indptr)
    present = n > 0
    lo = np.zeros(n.size)
    hi = np.zeros(n.size)
    lo[present] = ts[starts[present]]
    hi[present] = ts[indptr[1:][present] - 1]
    span = hi - lo
    spread = span > 0

    k = present.astype(np.int64)
    if spread.any():
        ns = n[spread]
        iqr = (_quantile_sorted(ts, starts[spread], ns, 0.75)
               - _quantile_sorted(ts, starts[spread], ns, 0.25))
        # the scalar rules of the per-sink definition, once per distinct n
        n_values, n_of_seg = np.unique(ns, return_inverse=True)
        k_sturges = np.asarray([int(np.ceil(np.log2(int(v)))) + 1 for v in n_values])[n_of_seg]
        cube = np.asarray([int(v) ** (-1.0 / 3.0) for v in n_values])[n_of_seg]
        k_fd = np.zeros(ns.size)
        fd = iqr > 0
        k_fd[fd] = np.ceil(span[spread][fd] / (2.0 * iqr[fd] * cube[fd]))
        k[spread] = np.minimum(np.maximum(k_sturges, k_fd), MAX_BINS).astype(np.int64)
    bin_indptr = np.concatenate(([0], np.cumsum(k))).astype(np.int64)
    widths = np.where(spread, span / np.maximum(k, 1), 1.0)

    # each event's bin, by np.histogram's uniform-bin rule with its one-ulp corrections
    seg = np.repeat(np.arange(n.size), n)
    bins = np.zeros(ts.size, dtype=np.int64)
    ev = np.flatnonzero(spread[seg])
    if ev.size:
        s = seg[ev]
        t, lo_e, k_e, step = ts[ev], lo[s], k[s], widths[s]
        idx = (((t - lo_e) / span[s]) * k_e).astype(np.intp)
        idx[idx == k_e] -= 1
        idx[t < idx * step + lo_e] -= 1
        upper = np.where(idx + 1 == k_e, hi[s], (idx + 1) * step + lo_e)
        idx[(t >= upper) & (idx != k_e - 1)] += 1
        bins[ev] = idx
    counts = np.bincount(bin_indptr[seg] + bins, minlength=int(bin_indptr[-1]))
    return SegmentHistograms(bin_indptr, counts.astype(np.int64, copy=False), lo, widths,
                             spread)


def build_histogram(timestamps: Sequence[int] | np.ndarray) -> TimeSeriesHist:
    """Histogram of one sink's timestamps: the one-segment case of histogram_segments."""
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    if ts.size == 0:
        raise DataError("cannot build a histogram from zero timestamps")
    return histogram_segments(ts, np.array([0, ts.size]))[0]


def _distances_to_line(tx, cx, t0, c0, t1, c1):
    """Perpendicular distance of points (tx, cx) to the line through (t0,c0)-(t1,c1)."""
    num = np.abs((c1 - c0) * tx - (t1 - t0) * cx + t1 * c0 - c1 * t0)
    return num / math.hypot(c1 - c0, t1 - t0)


def _awakening_index(centers, counts, i: int, m: int) -> int | None:
    """Index of the awakening point for the max at m within a window starting at i.

    Candidates run from the window start up to m-1. When every candidate sits
    on the anchor line (zero distance everywhere) the first point after the
    window start is taken, so a perfectly linear rise awakens at its first
    interior point.
    """
    if m - 1 < i:
        return None
    tx = centers[i:m]
    cx = counts[i:m]
    d = _distances_to_line(tx, cx, centers[i], counts[i], centers[m], counts[m])
    best = i + int(np.argmax(d))
    if d[best - i] == 0.0 and i + 1 <= m - 1:
        best = i + 1
    return best


def _dying_index(centers, counts, m: int, j: int) -> int | None:
    """Mirror of the awakening search on the decline from m to the window end j."""
    if m + 1 > j:
        return None
    tx = centers[m + 1:j + 1]
    cx = counts[m + 1:j + 1]
    d = _distances_to_line(tx, cx, centers[m], counts[m], centers[j], counts[j])
    best = m + 1 + int(np.argmax(d))
    if d[best - m - 1] == 0.0 and m + 1 <= j - 1:
        best = j - 1
    return best


def _first_local_min(counts, m: int, j: int) -> int | None:
    """First k > m with counts[k] <= counts[k+1]; plateaus count at their left edge."""
    if m + 1 > j:
        return None
    for k in range(m + 1, j):
        if counts[k] <= counts[k + 1]:
            return k
    return j


def multiburst(hist: TimeSeriesHist,
               significance: float = BURST_SIGNIFICANCE) -> tuple[BurstPair, ...]:
    """Extract all awakening/burst pairs, keeping those whose altitude reaches
    ``significance`` times the largest altitude found."""
    centers = np.asarray(hist.centers, dtype=np.float64)
    counts = np.asarray(hist.counts, dtype=np.float64)
    pairs: list[BurstPair] = []
    stack = [(0, len(counts) - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        win = counts[i:j + 1]
        if win.max() == win.min():
            continue
        m = i + int(np.argmax(win))
        a = _awakening_index(centers, counts, i, m)
        if a is not None and counts[m] > counts[a]:
            pairs.append(BurstPair((float(centers[a]), float(counts[a])),
                                   (float(centers[m]), float(counts[m]))))
            stack.append((i, a - 1))
        k = _first_local_min(counts, m, j)
        if k is not None:
            stack.append((k, j))
    if not pairs:
        return ()
    top = max(p.altitude for p in pairs)
    kept = tuple(p for p in pairs if p.altitude >= significance * top)
    return tuple(sorted(kept, key=lambda p: p.awakening[0]))


def max_drop(hist: TimeSeriesHist) -> DropInfo | None:
    """The drop with the largest fall, found by the recursive dying-point search."""
    centers = np.asarray(hist.centers, dtype=np.float64)
    counts = np.asarray(hist.counts, dtype=np.float64)
    best: DropInfo | None = None
    stack = [(0, len(counts) - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        win = counts[i:j + 1]
        if win.max() == win.min():
            continue
        m = i + int(np.argmax(win))
        d = _dying_index(centers, counts, m, j)
        if d is not None:
            if counts[m] > counts[d]:
                cand = DropInfo((float(centers[m]), float(counts[m])),
                                (float(centers[d]), float(counts[d])))
                if best is None or cand.fall > best.fall:
                    best = cand
            stack.append((d, j))
        stack.append((i, m - 1))
    return best


def spike_profile(hist: TimeSeriesHist,
                  sorted_times: np.ndarray) -> tuple[SpikeProfile, np.ndarray | None]:
    """Spike profile of a histogram with >= 3 bins, and the burst weight of
    each of its time-sorted events (None without a significant burst)."""
    pairs = multiburst(hist)
    drop = max_drop(hist)
    if not pairs:
        return SpikeProfile((), drop, 0.0), None
    w = burst_event_weights(pairs, sorted_times)
    return SpikeProfile(pairs, drop, float(w.sum())), w


def build_profile(timestamps: np.ndarray) -> tuple[TimeSeriesHist | None, SpikeProfile]:
    """Histogram + spike profile for one sink; sinks with < 3 events get an empty profile."""
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    if ts.size < 3:
        return None, SpikeProfile((), None, 0.0)
    hist = build_histogram(ts)
    if len(hist) < 3:
        return hist, SpikeProfile((), None, 0.0)
    return hist, spike_profile(hist, ts)[0]


def burst_event_weights(pairs: Sequence[BurstPair], sorted_times: np.ndarray) -> np.ndarray:
    """Per-event burst weight over a time-sorted array: each event inside a
    pair's awakening-to-burst window adds the pair's altitude times slope.
    Summed, it is the sink's phi denominator."""
    w = np.zeros(sorted_times.size, dtype=np.float64)
    for p in pairs:
        lo = np.searchsorted(sorted_times, p.awakening[0], side="left")
        hi = np.searchsorted(sorted_times, p.burst[0], side="right")
        w[lo:hi] += p.altitude * p.slope
    return w


def drop_edge_weight(drop: DropInfo | None) -> float:
    """Log-smoothed fall-times-slope weight of a drop; 0 when absent."""
    if drop is None:
        return 0.0
    return math.log2(1.0 + drop.fall * drop.slope)


def spike_weights(hists: SegmentHistograms, times: np.ndarray,
                  indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """spike_profile of every segment with >= 3 events and >= 3 bins, reduced
    to what the contrast signals read: the burst weight of each event, and
    each segment's phi denominator and drop edge weight (zeros elsewhere).

    Segments with at most FRONTIER_MAX_BINS bins run multiburst and max_drop
    together, one recursion level per pass over a frontier of windows; the
    rest call spike_profile one at a time. Both give the same bytes.
    """
    n_events = np.diff(indptr)
    n_bins = hists.n_bins()
    profiled = (n_events >= 3) & (n_bins >= 3)
    event_w = np.zeros(times.size, dtype=np.float64)
    phi_total = np.zeros(n_events.size, dtype=np.float64)
    drop_w = np.zeros(n_events.size, dtype=np.float64)
    small = np.flatnonzero(profiled & (n_bins <= FRONTIER_MAX_BINS))
    cuts = np.flatnonzero(np.diff(np.cumsum(n_bins[small]) // FRONTIER_CHUNK_BINS)) + 1
    for part in np.split(small, cuts):
        _frontier_weights(hists, times, indptr, part, event_w, phi_total, drop_w)
    for v in np.flatnonzero(profiled & (n_bins > FRONTIER_MAX_BINS)).tolist():
        lo, hi = indptr[v], indptr[v + 1]
        profile, w = spike_profile(hists[v], times[lo:hi])
        if w is not None:
            phi_total[v] = profile.phi_denominator
            event_w[lo:hi] = w
        drop_w[v] = drop_edge_weight(profile.max_drop)
    return event_w, phi_total, drop_w


def _frontier_weights(hists, times, indptr, segs, event_w, phi_total, drop_w) -> None:
    """spike_weights of the segments ``segs``, written into its outputs."""
    first, last = hists.bin_indptr[segs], hists.bin_indptr[segs + 1]
    n_bins = last - first
    # the segments' bins packed end to end, with __getitem__'s centers
    start = np.cumsum(n_bins) - n_bins
    counts = hists.counts[concat_ranges(first, last)].astype(np.float64)
    local = np.arange(counts.size) - np.repeat(start, n_bins)
    width = np.repeat(hists.widths[segs], n_bins)
    centers = local * width + np.repeat(hists.lo[segs], n_bins) + width / 2.0
    windows = (np.arange(segs.size), start, start + n_bins - 1)

    seg, a, m = _burst_pairs(centers, counts, *windows)
    if seg.size:
        altitude = counts[m] - counts[a]
        top = np.zeros(segs.size)
        np.maximum.at(top, seg, altitude)
        kept = altitude >= BURST_SIGNIFICANCE * top[seg]
        seg, a, m, altitude = seg[kept], a[kept], m[kept], altitude[kept]
        weight = altitude * (altitude / (centers[m] - centers[a]))
        ev_lo, ev_hi = indptr[segs[seg]], indptr[segs[seg] + 1]
        lo = _bisect(times, ev_lo, ev_hi, centers[a], right=False)
        hi = _bisect(times, ev_lo, ev_hi, centers[m], right=True)
        # the bursts of one segment cover disjoint spans of time
        event_w[concat_ranges(lo, hi)] = np.repeat(weight, hi - lo)
        bursty = segs[np.unique(seg)]
        phi_total[bursty] = _segment_sums(event_w, indptr[bursty], indptr[bursty + 1])

    seg, m, d = _max_drops(centers, counts, *windows)
    fall = counts[m] - counts[d]
    edge = 1.0 + fall * (fall / (centers[d] - centers[m]))
    drop_w[segs[seg]] = list(map(math.log2, edge.tolist()))


def _gather(starts: np.ndarray, stops: np.ndarray):
    """The non-empty ranges [starts, stops) packed end to end: their indices,
    and each range's offset and length in the packing."""
    lens = stops - starts
    return concat_ranges(starts, stops), np.cumsum(lens) - lens, lens


def _first_max(values, idx, offsets, lens):
    """Max of each packed range of values, and the idx of its first occurrence."""
    top = np.maximum.reduceat(values, offsets)
    hits = np.flatnonzero(values == np.repeat(top, lens))
    return top, idx[hits[np.searchsorted(hits, offsets)]]


def _live_windows(counts, seg, i, j):
    """The windows (i, j) the recursion does not skip, i.e. with 3 or more
    bins that are not all equal, and the first argmax m of each."""
    keep = j - i >= 2
    seg, i, j = seg[keep], i[keep], j[keep]
    if not seg.size:
        return seg, i, j, i
    idx, offsets, lens = _gather(i, j + 1)
    v = counts[idx]
    top, m = _first_max(v, idx, offsets, lens)
    live = top != np.minimum.reduceat(v, offsets)
    return seg[live], i[live], j[live], m[live]


def _farthest(centers, counts, starts, stops, p, q):
    """First index of the point farthest from the line through points p and
    q, over each non-empty range [starts, stops), with _distances_to_line's
    arithmetic; and whether that distance is zero."""
    if not starts.size:
        return starts, np.zeros(0, dtype=bool)
    idx, offsets, lens = _gather(starts, stops)
    t0, c0, t1, c1 = centers[p], counts[p], centers[q], counts[q]
    dc, dt = c1 - c0, t1 - t0
    norm = np.array(list(map(math.hypot, dc.tolist(), dt.tolist())))
    num = np.abs(np.repeat(dc, lens) * centers[idx] - np.repeat(dt, lens) * counts[idx]
                 + np.repeat(t1 * c0, lens) - np.repeat(c1 * t0, lens))
    top, best = _first_max(num / np.repeat(norm, lens), idx, offsets, lens)
    return best, top == 0.0


def _burst_pairs(centers, counts, seg, i, j):
    """multiburst's (segment, awakening, burst) index triples over the
    frontier of windows (i, j) of each segment, one recursion level per pass."""
    # the candidates k of _first_local_min
    rising = np.append(np.flatnonzero(counts[:-1] <= counts[1:]), counts.size)
    found = []
    while seg.size:
        seg, i, j, m = _live_windows(counts, seg, i, j)
        up = m > i
        us, ui, um = seg[up], i[up], m[up]
        a, flat = _farthest(centers, counts, ui, um, ui, um)
        a = np.where(flat & (ui + 1 <= um - 1), ui + 1, a)
        paired = counts[um] > counts[a]
        us, ui, um, a = us[paired], ui[paired], um[paired], a[paired]
        found.append((us, a, um))
        down = m < j
        dm, dj = m[down], j[down]
        k = np.minimum(rising[np.searchsorted(rising, dm + 1)], dj)
        seg = np.concatenate((us, seg[down]))
        i = np.concatenate((ui, k))
        j = np.concatenate((a - 1, dj))
    if not found:
        return (np.zeros(0, dtype=np.int64),) * 3
    return tuple(np.concatenate(x) for x in zip(*found))


def _max_drops(centers, counts, seg, i, j):
    """max_drop's (segment, burst, dying) index triple of each segment with a
    drop, over the frontier of windows (i, j), one recursion level per pass."""
    found = []
    while seg.size:
        seg, i, j, m = _live_windows(counts, seg, i, j)
        down = m < j
        ds, di, dj, dm = seg[down], i[down], j[down], m[down]
        d, flat = _farthest(centers, counts, dm + 1, dj + 1, dm, dj)
        d = np.where(flat & (dm + 1 <= dj - 1), dj - 1, d)
        fell = counts[dm] > counts[d]
        found.append((ds[fell], di[fell], dj[fell], dm[fell], d[fell]))
        seg = np.concatenate((ds, seg))
        i = np.concatenate((d, i))
        j = np.concatenate((dj, m - 1))
    if not found:
        return (np.zeros(0, dtype=np.int64),) * 3
    seg, i, j, m, d = (np.concatenate(x) for x in zip(*found))
    # max_drop keeps the first of equal falls in its depth-first pre-order:
    # a window comes before the windows inside it, and disjoint windows go
    # left to right
    order = np.lexsort((-j, i, counts[d] - counts[m], seg))
    seg, m, d = seg[order], m[order], d[order]
    first = np.flatnonzero(np.diff(seg, prepend=-1))
    return seg[first], m[first], d[first]


def _bisect(times, lo, hi, x, right: bool) -> np.ndarray:
    """np.searchsorted(times[lo:hi], x, side) + lo for each row, over ranges
    sorted within themselves."""
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        t = times[np.where(open_, mid, 0)]
        below = open_ & ((t <= x) if right else (t < x))
        lo = np.where(below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)


def _segment_sums(values, starts, stops) -> np.ndarray:
    """``values[starts[r]:stops[r]].sum()`` for each row r, in numpy's
    pairwise order: the rows of one length are summed as one 2-d array."""
    lens = stops - starts
    order = np.argsort(lens, kind="stable")
    cuts = np.flatnonzero(np.diff(lens[order])) + 1
    out = np.empty(lens.size)
    for rows in np.split(order, cuts):
        n = int(lens[rows[0]])
        block = values[concat_ranges(starts[rows], stops[rows])]
        out[rows] = block.reshape(rows.size, n).sum(axis=1)
    return out


def sigma_from_drop_weights(weights: np.ndarray) -> np.ndarray:
    """Sink column weights 1 + w/max(w); all ones when no sink shows a drop."""
    weights = np.asarray(weights, dtype=np.float64)
    top = weights.max() if weights.size else 0.0
    if top <= 0.0:
        return np.ones_like(weights)
    return 1.0 + weights / top


def time_obstruction_bound(n_edges: float, bin_width: float,
                           rise_slope: float, decline_slope: float) -> tuple[float, float]:
    """Minimum time and burst height needed to land n_edges without an abnormal spike.

    An attack of n_edges finished in less than the returned time must show a
    rise steeper than rise_slope or a fall steeper than decline_slope.
    """
    if min(n_edges, bin_width, rise_slope, decline_slope) <= 0:
        raise DataError("all bound inputs must be positive")
    s1, s2 = rise_slope, decline_slope
    tau = math.sqrt(2.0 * n_edges * bin_width * (s1 + s2) / (s1 * s2))
    height = math.sqrt(2.0 * n_edges * bin_width * s1 * s2 / (s1 + s2))
    return tau, height


def simulate_triangle_attack(n_events: float, duration: float, bin_width: float,
                             rise_fraction: float = 0.5) -> np.ndarray:
    """Binned counts of a triangular attack of given total volume and duration.

    The rise climbs linearly to the peak over the first bins and the fall
    returns linearly to zero; bin counts sum exactly to n_events.
    """
    if duration < 2 * bin_width:
        raise DataError("attack duration must span at least two bins")
    n_bins = max(2, int(duration / bin_width))
    n1 = min(max(int(round(rise_fraction * n_bins)), 1), n_bins - 1)
    n2 = n_bins - n1
    height = 2.0 * n_events / n_bins
    rise = height * np.arange(1, n1 + 1) / n1
    fall = height * np.arange(n2 - 1, -1, -1) / n2
    return np.concatenate((rise, fall))


def extreme_slopes(counts: np.ndarray, bin_width: float) -> tuple[float, float]:
    """Steepest adjacent-bin rise and fall of a binned series, in counts per second."""
    diffs = np.diff(np.asarray(counts, dtype=np.float64)) / bin_width
    max_rise = float(diffs.max(initial=0.0))
    max_fall = float((-diffs).max(initial=0.0))
    return max_rise, max_fall


def profile_payload(sink_id: str, hist: TimeSeriesHist | None,
                    profile: SpikeProfile) -> dict:
    """JSON-ready debug dump of one sink's bins, burst pairs, and drop."""
    payload: dict = {"sink": sink_id, "pairs": [], "drop": None,
                     "phi_denominator": profile.phi_denominator}
    if hist is not None:
        payload["bin_width"] = hist.bin_width
        payload["bins"] = [[float(t), int(c)] for t, c in zip(hist.centers, hist.counts)]
    for p in profile.pairs:
        payload["pairs"].append({
            "awakening": list(p.awakening), "burst": list(p.burst),
            "slope": p.slope, "altitude": p.altitude})
    if profile.max_drop is not None:
        d = profile.max_drop
        payload["drop"] = {"burst": list(d.burst), "dying": list(d.dying),
                           "slope": d.slope, "fall": d.fall}
    return payload
