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
# Segments with more bins than this recurse one at a time; the rest advance
# through the recursion together, one level per pass. Both emit triples.
# Bin counts are bimodal: a sink of the benchmark graphs has at most 230
# bins or more than 2048, so any value from 256 to 1024 makes the same split.
FRONTIER_MAX_BINS = 512
# Most bins one frontier pass takes; the pass's temporaries grow with them.
FRONTIER_CHUNK_BINS = 1 << 15
# A burst pair is kept when its altitude reaches this share of the largest one.
BURST_SIGNIFICANCE = 0.5


@dataclass(frozen=True)
class SegmentHistograms:
    """Histograms of many time-sorted segments, packed end to end.

    Segment s owns bins ``bin_indptr[s]:bin_indptr[s + 1]`` of ``counts``;
    an empty segment owns no bins. A bin's center follows from its index,
    the segment's first timestamp and its bin width (``_points``).
    """

    bin_indptr: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    widths: np.ndarray
    spread: np.ndarray  # the segment spans more than one timestamp

    def n_bins(self) -> np.ndarray:
        return np.diff(self.bin_indptr)


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


def _points(hists: SegmentHistograms, seg, idx) -> tuple[np.ndarray, np.ndarray]:
    """Center and count, as float64, of global bins ``idx`` of segments ``seg``.
    A center is linspace's edge (idx - first) * width + lo, shifted by half a bin."""
    width = hists.widths[seg]
    return ((idx - hists.bin_indptr[seg]) * width + hists.lo[seg] + width / 2.0,
            hists.counts[idx].astype(np.float64))


def spike_weights(hists: SegmentHistograms, times: np.ndarray, indptr: np.ndarray):
    """The burst/drop recursion of every segment with >= 3 events and >= 3
    bins, reduced to what the contrast signals read: the burst weight of each
    event, and each segment's phi denominator and drop edge weight (zeros
    elsewhere). Also returns the significant burst triples (segment,
    awakening, burst) and the max-drop triples (segment, burst, dying), in
    global bin indices into ``hists.counts``.

    Segments with at most FRONTIER_MAX_BINS bins advance together, one
    recursion level per pass over a frontier of windows; the rest recurse
    one segment at a time. Both emit triples, and one reducer turns them
    into the outputs.
    """
    n_bins = hists.n_bins()
    profiled = (np.diff(indptr) >= 3) & (n_bins >= 3)
    small = np.flatnonzero(profiled & (n_bins <= FRONTIER_MAX_BINS))
    cuts = np.flatnonzero(np.diff(np.cumsum(n_bins[small]) // FRONTIER_CHUNK_BINS)) + 1
    found = [_frontier_triples(hists, part) for part in np.split(small, cuts)]
    large_bursts, large_drops = [], []
    for s in np.flatnonzero(profiled & (n_bins > FRONTIER_MAX_BINS)).tolist():
        _segment_triples(hists, s, large_bursts, large_drops)
    found.append((_columns(large_bursts), _columns(large_drops)))
    return _reduce(hists, times, indptr, *(_concat(parts) for parts in zip(*found)))


def _columns(rows) -> tuple[np.ndarray, ...]:
    """A list of triples as three index arrays."""
    return tuple(np.asarray(rows, dtype=np.int64).reshape(-1, 3).T)


def _concat(parts) -> tuple[np.ndarray, ...]:
    """Triples of index arrays joined end to end."""
    return tuple(np.concatenate(x) for x in zip(*parts))


def _reduce(hists, times, indptr, bursts, drops):
    """spike_weights' outputs from the burst triples (before the significance
    filter) and the max-drop triples of every segment."""
    n = indptr.size - 1
    event_w = np.zeros(times.size, dtype=np.float64)
    phi_total = np.zeros(n, dtype=np.float64)
    drop_w = np.zeros(n, dtype=np.float64)

    seg, a, m = bursts
    (ta, ca), (tm, cm) = _points(hists, seg, a), _points(hists, seg, m)
    altitude = cm - ca
    top = np.zeros(n)
    np.maximum.at(top, seg, altitude)
    kept = altitude >= BURST_SIGNIFICANCE * top[seg]
    seg, a, m, altitude, ta, tm = (x[kept] for x in (seg, a, m, altitude, ta, tm))
    if seg.size:
        weight = altitude * (altitude / (tm - ta))
        ev_lo, ev_hi = indptr[seg], indptr[seg + 1]
        lo = _bisect(times, ev_lo, ev_hi, ta, right=False)
        hi = _bisect(times, ev_lo, ev_hi, tm, right=True)
        # the bursts of one segment cover disjoint spans of time
        event_w[concat_ranges(lo, hi)] = np.repeat(weight, hi - lo)
        bursty = np.unique(seg)
        phi_total[bursty] = _segment_sums(event_w, indptr[bursty], indptr[bursty + 1])

    drop_seg, b, d = drops
    (tb, cb), (td, cd) = _points(hists, drop_seg, b), _points(hists, drop_seg, d)
    fall = cb - cd
    drop_w[drop_seg] = list(map(math.log2, (1.0 + fall * (fall / (td - tb))).tolist()))
    return event_w, phi_total, drop_w, (seg, a, m), drops


def _distances_to_line(tx, cx, t0, c0, t1, c1):
    """Perpendicular distance of points (tx, cx) to the line through (t0,c0)-(t1,c1)."""
    num = np.abs((c1 - c0) * tx - (t1 - t0) * cx + t1 * c0 - c1 * t0)
    return num / math.hypot(c1 - c0, t1 - t0)


def _peak(counts, i: int, j: int) -> int | None:
    """First argmax of the window [i, j], or None for a window the recursion
    skips: fewer than 3 bins, or all bins equal."""
    if j - i < 2:
        return None
    win = counts[i:j + 1]
    m = int(win.argmax())
    return None if win[m] == win.min() else i + m


def _awakening_index(centers, counts, i: int, m: int) -> int | None:
    """Index of the awakening point for the max at m within a window starting at i.

    Candidates run from the window start up to m-1. When every candidate sits
    on the anchor line (zero distance everywhere) the first point after the
    window start is taken, so a perfectly linear rise awakens at its first
    interior point.
    """
    if m - 1 < i:
        return None
    d = _distances_to_line(centers[i:m], counts[i:m], centers[i], counts[i],
                           centers[m], counts[m])
    best = i + int(d.argmax())
    if d[best - i] == 0.0 and i + 1 <= m - 1:
        best = i + 1
    return best


def _dying_index(centers, counts, m: int, j: int) -> int | None:
    """Mirror of the awakening search on the decline from m to the window end j."""
    if m + 1 > j:
        return None
    d = _distances_to_line(centers[m + 1:j + 1], counts[m + 1:j + 1], centers[m],
                           counts[m], centers[j], counts[j])
    best = m + 1 + int(d.argmax())
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


def _segment_triples(hists, s: int, bursts: list, drops: list) -> None:
    """The recursion over segment s one window at a time, for segments too
    large for the frontier: appends its (s, awakening, burst) triples and its
    max drop's (s, burst, dying) triple, in global bin indices."""
    first = int(hists.bin_indptr[s])
    centers, counts = _points(hists, s, np.arange(first, hists.bin_indptr[s + 1]))
    stack = [(0, counts.size - 1)]
    while stack:
        i, j = stack.pop()
        m = _peak(counts, i, j)
        if m is None:
            continue
        a = _awakening_index(centers, counts, i, m)
        if a is not None and counts[m] > counts[a]:
            bursts.append((s, first + a, first + m))
            stack.append((i, a - 1))
        k = _first_local_min(counts, m, j)
        if k is not None:
            stack.append((k, j))
    # the largest fall; of equal falls, the first in depth-first pre-order
    best, fall = None, 0.0
    stack = [(0, counts.size - 1)]
    while stack:
        i, j = stack.pop()
        m = _peak(counts, i, j)
        if m is None:
            continue
        d = _dying_index(centers, counts, m, j)
        if d is not None:
            if counts[m] - counts[d] > fall:
                best, fall = (s, first + m, first + d), counts[m] - counts[d]
            stack.append((d, j))
        stack.append((i, m - 1))
    if best is not None:
        drops.append(best)


def _frontier_triples(hists, segs):
    """The burst triples and max-drop triples of the segments ``segs``, their
    windows advancing together, one recursion level per pass."""
    first, last = hists.bin_indptr[segs], hists.bin_indptr[segs + 1]
    n_bins = last - first
    # the segments' bins packed end to end; bins maps back to global indices
    bins = concat_ranges(first, last)
    centers, counts = _points(hists, np.repeat(segs, n_bins), bins)
    start = np.cumsum(n_bins) - n_bins
    windows = (np.arange(segs.size), start, start + n_bins - 1)
    seg, a, m = _burst_pairs(centers, counts, *windows)
    ds, dm, dd = _max_drops(centers, counts, *windows)
    return (segs[seg], bins[a], bins[m]), (segs[ds], bins[dm], bins[dd])


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
    """_segment_triples' (segment, awakening, burst) index triples over the
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
    """_segment_triples' (segment, burst, dying) index triple of each segment
    with a drop, over the frontier of windows (i, j), one recursion level per pass."""
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
    # the recursion keeps the first of equal falls in its depth-first pre-order:
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


def profile_payloads(sink_ids: Sequence[str], times: np.ndarray,
                     indptr: np.ndarray) -> list[dict]:
    """JSON-ready debug dump of each time-sorted segment
    ``times[indptr[s]:indptr[s + 1]]``: its bins, its significant burst pairs
    by awakening time, its max drop and its phi denominator. A segment with
    fewer than 3 events gets no bins."""
    hists = histogram_segments(times, indptr)
    _, phi_total, _, bursts, drops = spike_weights(hists, times, indptr)
    seg, a, m = (x[np.lexsort((bursts[1], bursts[0]))] for x in bursts)
    pair_rows = np.searchsorted(seg, np.arange(len(sink_ids) + 1))
    ta, ca, tb, cb = (x.tolist() for idx in (a, m) for x in _points(hists, seg, idx))
    drop_seg, burst, dying = drops
    tm, cm, td, cd = (x.tolist() for idx in (burst, dying)
                      for x in _points(hists, drop_seg, idx))
    drop_row = dict(zip(drop_seg.tolist(), range(drop_seg.size)))
    payloads = []
    for s, sink in enumerate(sink_ids):
        payload: dict = {"sink": sink, "phi_denominator": float(phi_total[s]), "pairs": [],
                         "drop": None}
        if indptr[s + 1] - indptr[s] >= 3:
            first, last = hists.bin_indptr[s], hists.bin_indptr[s + 1]
            centers = (_points(hists, s, np.arange(first, last))[0].tolist()
                       if hists.spread[s] else [float(hists.lo[s])])
            payload["bin_width"] = float(hists.widths[s])
            payload["bins"] = [[t, int(c)] for t, c in zip(centers, hists.counts[first:last])]
        for p in range(pair_rows[s], pair_rows[s + 1]):
            altitude = cb[p] - ca[p]
            payload["pairs"].append({"awakening": [ta[p], ca[p]], "burst": [tb[p], cb[p]],
                                     "slope": altitude / (tb[p] - ta[p]),
                                     "altitude": altitude})
        r = drop_row.get(s)
        if r is not None:
            fall = cm[r] - cd[r]
            payload["drop"] = {"burst": [tm[r], cm[r]], "dying": [td[r], cd[r]],
                               "slope": fall / (td[r] - tm[r]), "fall": fall}
        payloads.append(payload)
    return payloads
