"""Per-sink timestamp histograms and spike geometry: bursts, drops, burst weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph import concat_ranges, sorted_unique

# Cap on a histogram's bin count. It sets outputs, not memory: a segment
# stores only its kept bins (SegmentHistograms), however many bins it spans.
# It is no rare case: on bench_graph(1_000_000, seed=1) it fires on 196
# sinks, which span 12.8M of the 13.3M bins. Changing this cap, or the bin
# rule, changes every output that reads the histograms.
MAX_BINS = 65536
# A burst pair is kept when its altitude reaches this share of the largest one.
BURST_SIGNIFICANCE = 0.5
# Events binned per block by histogram_segments; it bounds that pass's
# temporaries, not its outputs.
_BLOCK_EVENTS = 1 << 14


@dataclass(frozen=True)
class SegmentHistograms:
    """Histograms of many time-sorted segments, packed end to end, holding
    only their kept bins.

    Segment s spans global bins ``bin_indptr[s]:bin_indptr[s + 1]``; an empty
    segment spans none. ``bins`` holds the kept bins' global indices,
    ascending, and ``counts`` their counts: every non-empty bin, and the
    first, second-to-last and last bin of each run of empty bins. Storage is
    O(non-empty bins), whatever the bin count. A bin's center follows from
    its index, the segment's first timestamp and its bin width (``_centers``).

    The burst/drop recursion can pick only kept bins, so it finds the same
    triples over them as over every bin:
    - a window's first argmax is non-empty, and the first local minimum after
      it is non-empty or a run's first bin;
    - inside a run, a bin's distance to an anchor line falls and then rises
      with its center, so the farthest bin is an end of the run inside the
      window, the first end when both are equal;
    - window bounds fall on kept bins: the second-to-last bin arises as the
      end ``a - 1`` of the window before an awakening ``a`` at a run's last bin.
    Rounding could tie distances inside a run of a segment whose bin width
    is within the rounding of the distances (``from_bins``); such a segment
    keeps every bin.
    """

    bin_indptr: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    widths: np.ndarray
    spread: np.ndarray  # the segment spans more than one timestamp

    @classmethod
    def from_bins(cls, bin_indptr, ids, counts, lo, widths, spread) -> SegmentHistograms:
        """The histograms whose non-empty bins are ``ids`` (ascending global
        indices) with ``counts``, and whose other bins are empty."""
        first, last = bin_indptr[:-1], bin_indptr[1:] - 1
        # _farthest's distances carry rounding errors of a few units of 2^-53
        # times (largest count) * (largest |center|). Where the bin width is
        # not 2^7 times above that, two bins of a run could tie: keep them all.
        top = np.zeros(lo.size)
        np.maximum.at(top, np.searchsorted(bin_indptr, ids, side="right") - 1, counts)
        reach = np.maximum(np.abs(lo), np.abs(lo + widths * (last + 1 - first))) + widths
        tight = np.flatnonzero(widths <= top * reach * 2.0 ** -46)
        # a run of empty bins starts at ids + 1 or a segment's first bin and
        # ends at ids - 1 or its last bin, so ids - 2 or last - 1 is its
        # second-to-last; each of these is kept or outside the histograms
        near = np.add.outer(ids, np.arange(-2, 2)).ravel()
        kept = np.concatenate((near, first, last - 1, last,
                               concat_ranges(first[tight], last[tight] + 1)))
        del near
        kept.sort()
        kept = kept[np.searchsorted(kept, 0):np.searchsorted(kept, bin_indptr[-1])]
        new = np.empty(kept.size, dtype=bool)
        new[:1] = True
        np.not_equal(kept[1:], kept[:-1], out=new[1:])
        kept = kept[new]
        kept_counts = np.zeros(kept.size, dtype=np.int64)
        kept_counts[np.searchsorted(kept, ids)] = counts
        return cls(bin_indptr, kept, kept_counts, lo, widths, spread)

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
    with the finer of the Sturges and Freedman-Diaconis rules, all segments at once.

    Bin count is max(ceil(log2 n) + 1, ceil(range / (2 * IQR * n^(-1/3)))),
    capped at MAX_BINS; a zero IQR falls back to Sturges alone, and identical
    timestamps degenerate to a single one-second bin. The quartiles, edges
    and bin assignment reproduce np.percentile and np.histogram bit for bit,
    including np.histogram's right-closed last bin.
    """
    ts = np.asarray(times, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    rule = _bin_rule(ts, indptr)
    ids, counts = _bin_runs(ts, indptr, rule)
    return SegmentHistograms.from_bins(rule.bin_indptr, ids, counts, rule.lo, rule.widths,
                                       rule.spread)


class _BinRule(NamedTuple):
    """Each segment's first and last timestamp, bin count and width, whether
    it spans more than one timestamp, and where its bins start globally."""

    lo: np.ndarray
    hi: np.ndarray
    k: np.ndarray
    widths: np.ndarray
    spread: np.ndarray
    bin_indptr: np.ndarray


def _bin_rule(ts: np.ndarray, indptr: np.ndarray) -> _BinRule:
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
    return _BinRule(lo, hi, k, widths, spread, bin_indptr)


def _event_bins(t: np.ndarray, seg: np.ndarray, rule: _BinRule) -> np.ndarray:
    """The global bin of events at times ``t`` in segments ``seg``, by
    np.histogram's uniform-bin rule with its one-ulp corrections."""
    bins = rule.bin_indptr[seg]
    ev = np.flatnonzero(rule.spread[seg])
    if ev.size:
        s = seg[ev]
        t, lo, hi, k, step = t[ev], rule.lo[s], rule.hi[s], rule.k[s], rule.widths[s]
        idx = (((t - lo) / (hi - lo)) * k).astype(np.intp)
        idx[idx == k] -= 1
        idx[t < idx * step + lo] -= 1
        upper = np.where(idx + 1 == k, hi, (idx + 1) * step + lo)
        idx[(t >= upper) & (idx != k - 1)] += 1
        bins[ev] += idx
    return bins


def _bin_runs(ts: np.ndarray, indptr: np.ndarray, rule: _BinRule):
    """Each non-empty global bin, ascending, and its event count.

    Events are binned _BLOCK_EVENTS at a time, so the temporaries do not
    grow with the event count. Global bins never fall along the events
    (segments in order, times sorted within each), so a bin's count is the
    length of its run of events."""
    ids, starts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    last = -1
    for b0 in range(0, ts.size, _BLOCK_EVENTS):
        block = ts[b0:b0 + _BLOCK_EVENTS]
        seg = np.searchsorted(indptr, np.arange(b0, b0 + block.size), side="right") - 1
        bins = _event_bins(block, seg, rule)
        # a run that goes on from the block before does not start here
        at = np.flatnonzero(np.diff(bins, prepend=last))
        ids.append(bins[at])
        starts.append(at + b0)
        last = bins[-1]
    return np.concatenate(ids), np.diff(np.concatenate(starts), append=ts.size)


def _centers(hists: SegmentHistograms, seg, idx) -> np.ndarray:
    """Center of global bins ``idx`` of segments ``seg``: linspace's edge
    (idx - first) * width + lo, shifted by half a bin."""
    width = hists.widths[seg]
    return (idx - hists.bin_indptr[seg]) * width + hists.lo[seg] + width / 2.0


def _points(hists: SegmentHistograms, seg, idx) -> tuple[np.ndarray, np.ndarray]:
    """Center and count, as float64, of kept global bins ``idx`` of segments ``seg``."""
    return (_centers(hists, seg, idx),
            hists.counts[np.searchsorted(hists.bins, idx)].astype(np.float64))


def spike_weights(hists: SegmentHistograms, times: np.ndarray, indptr: np.ndarray):
    """The burst/drop recursion of every segment with >= 3 events and >= 3
    bins, reduced to what the contrast signals read: the burst weight of each
    event, and each segment's phi denominator and drop edge weight (zeros
    elsewhere). Also returns the significant burst triples (segment,
    awakening, burst) and the max-drop triples (segment, burst, dying), in
    global bin indices.

    The histograms hold only their kept bins, and one frontier covers every
    segment: their windows advance together over the kept bins, one
    recursion level per pass, and one reducer turns the triples into the
    outputs.
    """
    kept = np.searchsorted(hists.bins, hists.bin_indptr)
    n_kept = np.diff(kept)
    centers = _centers(hists, np.repeat(np.arange(n_kept.size), n_kept), hists.bins)
    counts = hists.counts.astype(np.float64)
    profiled = np.flatnonzero((np.diff(indptr) >= 3) & (hists.n_bins() >= 3))
    windows = (profiled, kept[profiled], kept[profiled + 1] - 1)
    seg, a, m = _burst_pairs(centers, counts, *windows)
    ds, dm, dd = _max_drops(centers, counts, *windows)
    bins = hists.bins
    return _reduce(hists, times, indptr, (seg, bins[a], bins[m]), (ds, bins[dm], bins[dd]))


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
        bursty = sorted_unique(seg)
        phi_total[bursty] = _segment_sums(event_w, indptr[bursty], indptr[bursty + 1])

    drop_seg, b, d = drops
    (tb, cb), (td, cd) = _points(hists, drop_seg, b), _points(hists, drop_seg, d)
    fall = cb - cd
    drop_w[drop_seg] = list(map(math.log2, (1.0 + fall * (fall / (td - tb))).tolist()))
    return event_w, phi_total, drop_w, (seg, a, m), drops


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
    q, over each non-empty range [starts, stops), and whether that distance
    is zero. A point's distance is |dc * t - dt * c + t1 * c0 - c1 * t0| /
    hypot(dc, dt), evaluated left to right."""
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
    """The (segment, awakening, burst) index triples of the recursion over the
    frontier of windows (i, j) of each segment, one recursion level per pass.

    A window's first argmax m is a burst. Its awakening is the first
    farthest point in [i, m) from the line through i and m (i + 1 when every
    point sits on that line); when lower than m, the two make a pair and the
    recursion goes on in [i, awakening). It also goes on from the first local
    minimum after m to j."""
    # the k with counts[k] <= counts[k + 1]; the first one after m, or j, is
    # the first local minimum after m
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
    """The (segment, burst, dying) index triple of each segment's largest
    drop, over the frontier of windows (i, j), one recursion level per pass.

    A window's first argmax m is a burst; its dying point is the first
    farthest point in (m, j] from the line through m and j (j - 1 when every
    point sits on that line). The recursion goes on in [dying, j] and [i, m)."""
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
            centers = (_centers(hists, s, np.arange(first, last)).tolist()
                       if hists.spread[s] else [float(hists.lo[s])])
            k0, k1 = np.searchsorted(hists.bins, (first, last))
            counts = np.zeros(last - first, dtype=np.int64)
            counts[hists.bins[k0:k1] - first] = hists.counts[k0:k1]
            payload["bin_width"] = float(hists.widths[s])
            payload["bins"] = [[t, c] for t, c in zip(centers, counts.tolist())]
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
