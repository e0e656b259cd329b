"""Straightforward reference implementations the vectorized code is checked against."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from fraudsift import BipartiteGraph, DataError, RatingScale
from fraudsift.contrast import RATING_SMOOTHING, SignalContext, contrast_score
from fraudsift.detector import greedy_shaving, matricize, svd_seeds
from fraudsift.evalkit import roc_auc_from_arrays
from fraudsift.graph import _HEADER_WORDS, _coerce_record, concat_ranges
from fraudsift.spectral import SVD_SEED, _canonical_signs
from fraudsift.temporal import BURST_SIGNIFICANCE, MAX_BINS


# -- scalar signal quantities ------------------------------------------------


def suspicion_scale(x: float, base: float) -> float:
    """Exponential belief scale b^(x-1) mapping [0, 1] onto (1/b, 1]."""
    if base <= 1:
        raise DataError("scaling base must exceed 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"signal value {x} outside [0, 1]")
    return float(base ** (x - 1.0))


def involvement_ratio(engaged: float, total: float) -> float:
    """Fraction of a sink's weighted traffic coming from the tracked user set."""
    if total <= 0:
        raise DataError("isolated sink")
    if engaged < 0 or engaged > total * (1 + 1e-12):
        raise ValueError("engagement exceeds the sink total")
    return min(engaged / total, 1.0)


def rating_divergence(counts_set, counts_rest, f_set: float, f_rest: float,
                      smoothing: float = 1e-3) -> float:
    """Balance-weighted KL divergence between two non-neutral rating histograms,
    one sink at a time: ContrastState's kappa before normalization.

    The balance factor min(f_set/f_rest, f_rest/f_set) suppresses sinks where
    one side contributes almost nothing. Sinks without ratings score 0.
    """
    nA = np.asarray(counts_set, dtype=np.float64)
    nR = np.asarray(counts_rest, dtype=np.float64)
    if nA.size == 0 or (nA.sum() + nR.sum()) == 0:
        return 0.0
    if f_set <= 0 or f_rest <= 0:
        return 0.0
    c = nA.size
    p = (nA + smoothing) / (nA.sum() + smoothing * c)
    q = (nR + smoothing) / (nR.sum() + smoothing * c)
    kl = float((p * np.log(p / q)).sum())
    balance = min(f_set / f_rest, f_rest / f_set)
    return kl * balance


def awakening_point(hist: TimeSeriesHist, i: int, j: int) -> tuple[float, float] | None:
    """Awakening point for the maximum inside [i, j], or None for degenerate windows."""
    if j - i < 2:
        raise DataError("window too short")
    counts = np.asarray(hist.counts, dtype=np.float64)
    m = i + int(np.argmax(counts[i:j + 1]))
    a = _awakening_index(hist.centers, counts, i, m)
    if a is None:
        return None
    return (float(hist.centers[a]), float(counts[a]))


def burst_mass(profile: SpikeProfile, timestamps) -> float:
    """Altitude- and slope-weighted count of timestamps falling inside burst windows."""
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    total = 0.0
    for p in profile.pairs:
        lo = np.searchsorted(ts, p.awakening[0], side="left")
        hi = np.searchsorted(ts, p.burst[0], side="right")
        total += p.altitude * p.slope * float(hi - lo)
    return total


def phi_involvement(profile: SpikeProfile, times_subset, times_all) -> float:
    """Share of slope-weighted in-burst activity contributed by a subset of events.

    Returns 0 when the sink has no significant burst mass at all.
    """
    sub = Counter(np.asarray(times_subset, dtype=np.int64).tolist())
    full = Counter(np.asarray(times_all, dtype=np.int64).tolist())
    if sub - full:
        raise DataError("inconsistent timestamp sets: subset is not contained in the full set")
    denom = burst_mass(profile, times_all)
    if denom <= 0.0:
        return 0.0
    return burst_mass(profile, times_subset) / denom


def triplet_matrix(rows, cols, values, shape) -> sp.csr_matrix:
    """CSR matrix from (row, col, value) triplets; duplicate entries are summed."""
    coo = sp.coo_matrix((np.asarray(values, dtype=np.float64),
                         (np.asarray(rows), np.asarray(cols))), shape=shape)
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


# -- the per-sink spike object model -------------------------------------------


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


def histogram(timestamps) -> TimeSeriesHist:
    """One sink's histogram straight from np.percentile and np.histogram."""
    ts = np.asarray(timestamps, dtype=np.float64)
    n = ts.size
    lo, hi = float(ts.min()), float(ts.max())
    if lo == hi:
        return TimeSeriesHist(np.array([lo]), np.array([n], dtype=np.int64), 1.0)
    k_sturges = int(np.ceil(np.log2(n))) + 1
    q75, q25 = np.percentile(ts, [75, 25])
    iqr = float(q75 - q25)
    span = hi - lo
    if iqr > 0:
        k_fd = int(np.ceil(span / (2.0 * iqr * n ** (-1.0 / 3.0))))
    else:
        k_fd = 0
    k = min(max(k_sturges, k_fd, 1), MAX_BINS)
    counts, edges = np.histogram(ts, bins=k, range=(lo, hi))
    width = span / k
    centers = edges[:-1] + width / 2.0
    return TimeSeriesHist(centers, counts.astype(np.int64), width)


def segment_hist(hists, s: int) -> TimeSeriesHist:
    """Segment ``s`` of a SegmentHistograms as a TimeSeriesHist, every bin
    filled in from its kept bins."""
    first, last = hists.bin_indptr[s], hists.bin_indptr[s + 1]
    lo, width = float(hists.lo[s]), float(hists.widths[s])
    if hists.spread[s]:
        # linspace's edges i * width + lo, shifted by half a bin
        centers = np.arange(last - first) * width + lo + width / 2.0
    else:
        centers = np.full(last - first, lo)
    inside = (hists.bins >= first) & (hists.bins < last)
    counts = np.zeros(last - first, dtype=np.int64)
    counts[hists.bins[inside] - first] = hists.counts[inside]
    return TimeSeriesHist(centers, counts, width)


def _distances_to_line(tx, cx, t0, c0, t1, c1):
    """Perpendicular distance of points (tx, cx) to the line through (t0,c0)-(t1,c1)."""
    num = np.abs((c1 - c0) * tx - (t1 - t0) * cx + t1 * c0 - c1 * t0)
    return num / math.hypot(c1 - c0, t1 - t0)


def _awakening_index(centers, counts, i: int, m: int) -> int | None:
    """Farthest point from the line (i)-(m) among i..m-1; on a line, the first
    interior point."""
    if m - 1 < i:
        return None
    d = _distances_to_line(centers[i:m], counts[i:m], centers[i], counts[i],
                           centers[m], counts[m])
    best = i + int(np.argmax(d))
    if d[best - i] == 0.0 and i + 1 <= m - 1:
        best = i + 1
    return best


def _dying_index(centers, counts, m: int, j: int) -> int | None:
    """Mirror of the awakening search on the decline from m to the window end j."""
    if m + 1 > j:
        return None
    d = _distances_to_line(centers[m + 1:j + 1], counts[m + 1:j + 1], centers[m],
                           counts[m], centers[j], counts[j])
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
    """All awakening/burst pairs, keeping those whose altitude reaches
    ``significance`` times the largest altitude found, by awakening time."""
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


def burst_event_weights(pairs, sorted_times: np.ndarray) -> np.ndarray:
    """Per-event burst weight over a time-sorted array: each event inside a
    pair's awakening-to-burst window adds the pair's altitude times slope."""
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


def build_profile(timestamps) -> tuple[TimeSeriesHist | None, SpikeProfile]:
    """Histogram + spike profile for one sink; sinks with < 3 events get an empty profile."""
    ts = np.sort(np.asarray(timestamps, dtype=np.float64))
    if ts.size < 3:
        return None, SpikeProfile((), None, 0.0)
    hist = histogram(ts)
    if len(hist) < 3:
        return hist, SpikeProfile((), None, 0.0)
    return hist, spike_profile(hist, ts)[0]


def profile_payload(sink_id: str, timestamps) -> dict:
    """One sink's entry of ``detect --dump-profiles``, from its build_profile."""
    hist, profile = build_profile(timestamps)
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


def signal_arrays(graph):
    """(pair_phi_weight, sink_phi_total, drop_weights) from one sink at a time."""
    pair_w = np.zeros(graph.n_pairs)
    sink_total = np.zeros(graph.n_objects)
    drop_w = np.zeros(graph.n_objects)
    indptr = graph.sink_event_indptr
    for v in range(graph.n_objects):
        lo, hi = indptr[v], indptr[v + 1]
        times = graph.sink_event_time[lo:hi].astype(np.float64)
        if times.size < 3:
            continue
        hist = histogram(times)
        if len(hist) < 3:
            continue
        profile, w = spike_profile(hist, times)
        if w is not None:
            sink_total[v] = profile.phi_denominator
            np.add.at(pair_w, graph.sink_event_pair[lo:hi], w)
        drop_w[v] = drop_edge_weight(profile.max_drop)
    return pair_w, sink_total, drop_w


def events(graph):
    """All events as (user, object, timestamp, rating) tuples in pair-major
    order (timestamps sorted within each pair)."""
    for p in range(graph.n_pairs):
        u = graph.user_ids[graph.pair_src[p]]
        o = graph.object_ids[graph.pair_dst[p]]
        for e in range(graph.pair_event_indptr[p], graph.pair_event_indptr[p + 1]):
            yield (u, o,
                   int(graph.event_time[e]) if graph.has_timestamps else None,
                   float(graph.event_rating[e]) if graph.has_ratings else None)


def pairs_of_sink(graph, vi: int) -> np.ndarray:
    """Stored pairs into sink ``vi``, by source."""
    # stored pairs are ordered by (source, sink)
    return np.flatnonzero(graph.pair_dst == vi)


def pair_events(graph, pid: int) -> slice:
    """The events of stored pair ``pid`` as a slice of the event arrays."""
    return slice(graph.pair_event_indptr[pid], graph.pair_event_indptr[pid + 1])


def delimited_text(graph) -> str:
    """The CSV layout of write_delimited, one event record at a time."""
    lines = []
    for user, obj, ts, rating in events(graph):
        fields = [user, obj]
        if ts is not None:
            fields.append(str(ts))
        if rating is not None:
            fields.append(np.format_float_positional(rating, unique=True, trim="-"))
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def pair_counts(graph, by_sink: bool = False) -> list[tuple[str, str, int]]:
    """(user, object, event count) per stored pair, in (source, sink) order or,
    with ``by_sink``, in (sink, source) order."""
    order = np.lexsort((graph.pair_src, graph.pair_dst)) if by_sink else range(graph.n_pairs)
    return [(graph.user_ids[graph.pair_src[p]], graph.object_ids[graph.pair_dst[p]],
             int(graph.pair_count[p])) for p in order]


# -- the time-obstruction bound and triangular attacks --------------------------


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


# -- per-line ingest and two-lexsort build ---------------------------------------


def delimited_rows(lines):
    """(line number, fields) of every non-blank line of bytes; a header on
    line 1 is skipped, and a line that is not UTF-8 (never blank) yields
    None for its fields."""
    delim = None
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            line = None
        if line is not None and not line.strip():
            continue
        if delim is None:
            delim = "\t" if b"\t" in raw else ","
        if line is None:
            yield lineno, None
            continue
        parts = [p.strip() for p in line.split(delim)]
        if lineno == 1 and any(p.lower() in _HEADER_WORDS for p in parts):
            continue
        yield lineno, parts


def ingest_per_record(numbered, unit: str, scale=None, diagnostics=None) -> BipartiteGraph:
    """ingest over (position, record) pairs, one record at a time: ids
    interned with dict.setdefault; diagnostics read ``{unit} {position}: ...``."""
    users, objs, times, ratings = [], [], [], []
    uindex: dict[str, int] = {}
    oindex: dict[str, int] = {}
    n_ts = n_rated = 0

    def report(msg: str) -> None:
        if diagnostics is not None:
            diagnostics.append(msg)

    for pos, rec in numbered:
        if rec is None:
            report(f"{unit} {pos}: not valid UTF-8")
            continue
        try:
            user, obj, ts, rating = _coerce_record(rec)
            if rating is not None and scale is not None and rating not in scale:
                raise DataError(f"rating {rating} outside declared scale")
        except DataError as exc:
            report(f"{unit} {pos}: {exc}")
            continue
        users.append(uindex.setdefault(user, len(uindex)))
        objs.append(oindex.setdefault(obj, len(oindex)))
        times.append(ts if ts is not None else -1)
        n_ts += ts is not None
        ratings.append(rating if rating is not None else np.nan)
        n_rated += rating is not None

    n = len(users)
    if n == 0:
        raise DataError("empty input")
    if 0 < n_ts < n:
        raise DataError("timestamps must be present on all records or on none")
    if 0 < n_rated < n:
        raise DataError("ratings must be present on all records or on none")
    rat_arr = np.asarray(ratings) if n_rated else None
    if rat_arr is not None and scale is None:
        scale = RatingScale(np.unique(rat_arr))
    return BipartiteGraph(list(uindex), list(oindex), users, objs,
                          times if n_ts else None, rat_arr, scale=scale)


def read_delimited_per_line(path, scale=None, diagnostics=None) -> BipartiteGraph:
    """read_delimited one file line at a time; a line ends at \\n, \\r or \\r\\n."""
    lines = Path(path).read_bytes().splitlines()
    return ingest_per_record(delimited_rows(lines), "line", scale, diagnostics)


def lexsort_build(user_idx, obj_idx, times, ratings, n_users: int, n_objects: int) -> dict:
    """BipartiteGraph's arrays from two lexsorts: events by (user, object,
    time), then the sink-major view by (object, time) over them."""
    us = np.asarray(user_idx, dtype=np.int64)
    vs = np.asarray(obj_idx, dtype=np.int64)
    n = us.size
    ts = np.zeros(n, dtype=np.int64) if times is None else np.asarray(times, dtype=np.int64)
    order = np.lexsort((ts, vs, us))
    us, vs, ts = us[order], vs[order], ts[order]
    new_pair = np.ones(n, dtype=bool)
    new_pair[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    pair_start = np.flatnonzero(new_pair)
    pair_src = us[pair_start]
    pair_count = np.diff(np.append(pair_start, n)).astype(np.float64)
    out = {
        "pair_src": pair_src,
        "pair_dst": vs[pair_start],
        "pair_event_indptr": np.append(pair_start, n).astype(np.int64),
        "pair_count": pair_count,
        "event_time": ts if times is not None else None,
        "event_rating": None if ratings is None else np.asarray(ratings, np.float64)[order],
        "src_pair_indptr": np.searchsorted(pair_src, np.arange(n_users + 1)),
        "sink_event_time": None, "sink_event_pair": None, "sink_event_indptr": None,
    }
    if times is not None:
        sorder = np.lexsort((ts, vs))
        out["sink_event_time"] = ts[sorder]
        out["sink_event_pair"] = np.repeat(np.arange(pair_src.size, dtype=np.int64),
                                           pair_count.astype(np.int64))[sorder]
        out["sink_event_indptr"] = np.searchsorted(vs[sorder], np.arange(n_objects + 1))
    return out


# -- average-degree baseline and the Mapping AUC ------------------------------


def avg_degree_baseline(graph: BipartiteGraph) -> frozenset[str]:
    """Greedy peeling maximizing total edges over (|users| + |objects|), shaving
    the node of minimum degree, ties toward the smaller key (users are keys
    0..nu-1, objects nu..nu+nv-1). The classic density baseline the contrast
    detector is compared against."""
    csr = graph.counts_matrix()
    csc = csr.tocsc()
    nu, nv = csr.shape
    deg_u = np.asarray(csr.sum(axis=1)).ravel()
    deg = np.concatenate((deg_u, np.asarray(csr.sum(axis=0)).ravel())).tolist()
    alive = [True] * (nu + nv)
    # lazy deletion: a degree drop pushes a fresh entry; degrees only fall, so a
    # node's newest entry pops first and its older ones find it dead
    heap = [(d, key) for key, d in enumerate(deg)]
    heapq.heapify(heap)

    total = float(deg_u.sum())
    n_alive = nu + nv
    best_score = total / n_alive
    best_step = 0
    order: list[int] = []

    while n_alive > 1:
        d, key = heapq.heappop(heap)
        if not alive[key]:
            continue
        order.append(key)
        alive[key] = False
        total -= d
        if key < nu:
            lo, hi = csr.indptr[key], csr.indptr[key + 1]
            nbrs = (csr.indices[lo:hi] + nu).tolist()
            weights = csr.data[lo:hi].tolist()
        else:
            lo, hi = csc.indptr[key - nu], csc.indptr[key - nu + 1]
            nbrs = csc.indices[lo:hi].tolist()
            weights = csc.data[lo:hi].tolist()
        for j, e in zip(nbrs, weights):
            if alive[j]:
                deg[j] -= e
                heapq.heappush(heap, (deg[j], j))
        n_alive -= 1
        score = total / n_alive
        if score > best_score:
            best_score = score
            best_step = len(order)

    dead_users = {k for k in order[:best_step] if k < nu}
    return frozenset(graph.user_ids[i] for i in range(nu) if i not in dead_users)


def roc_auc(scores: Mapping, truth: Iterable) -> float:
    """Rank-based AUC (Mann-Whitney, ties averaged) of scored items against a
    positive set; requires both classes present."""
    items = list(scores.keys())
    positive = set(truth)
    values = np.asarray([scores[i] for i in items], dtype=np.float64)
    labels = np.asarray([i in positive for i in items], dtype=bool)
    return roc_auc_from_arrays(values, labels)


def avg_degree_peel(counts) -> set[int]:
    """Average-degree peeling on a dense users-by-objects count matrix.

    Every step recomputes the degrees of the live nodes and removes the one
    with the smallest (degree, key), where users are keys 0..nu-1 and objects
    nu..nu+nv-1. Returns the user rows alive at the best prefix.
    """
    counts = np.asarray(counts, dtype=np.float64)
    nu, nv = counts.shape
    alive = np.ones(nu + nv, dtype=bool)

    def live_counts():
        return counts[alive[:nu]][:, alive[nu:]]

    best_score = live_counts().sum() / (nu + nv)
    best_alive = alive.copy()
    while alive.sum() > 1:
        deg = np.concatenate((counts[:, alive[nu:]].sum(axis=1),
                              counts[alive[:nu]].sum(axis=0)))
        key = min(np.flatnonzero(alive).tolist(), key=lambda k: (deg[k], k))
        alive[key] = False
        score = live_counts().sum() / alive.sum()
        if score > best_score:
            best_score = score
            best_alive = alive.copy()
    return set(np.flatnonzero(best_alive[:nu]).tolist())


def row_scores(state) -> np.ndarray:
    """Incremental score of every seed row of a ContrastState; removed rows
    hold +inf."""
    S = np.full(state.active.size, np.inf)
    S[state.rows] = state._score
    return S


def user_scores(state) -> dict[str, float]:
    """Incremental score of every active seed user, by user id."""
    ids = state.ctx.graph.user_ids
    S = row_scores(state)
    return {ids[state.seed_idx[r]]: float(S[r]) for r in np.flatnonzero(state.active)}


def seed_row(state, user: str) -> int:
    """Row of ``user`` in the seed block of ``state``."""
    ui = state.ctx.graph.user_ids.index(user)
    row = int(np.searchsorted(state.seed_idx, ui))
    assert state.seed_idx[row] == ui, f"{user} not in the seed"
    return row


class GatherState:
    """ContrastState as it was before its fused per-step pass, with the
    column-gather updates it used before the seed-block matvec.

    The build, the signal refresh and the full-block product ``_sub`` are
    the per-sink code ContrastState had then; a removal gathers every
    (sink, seed user) entry of the removed user's sinks from a CSC mirror of
    the seed block and sums them per user with np.bincount, rebuilds its
    rating-category entries from the per-pair table and subtracts them with
    np.subtract.at. Removed users keep finite scores and are masked at
    argmin."""

    def __init__(self, context, seed_idx, active=None):
        self.ctx = context
        graph = context.graph
        seed_idx = np.unique(np.asarray(seed_idx, dtype=np.int64))
        self.seed_idx = seed_idx
        m0 = seed_idx.size
        starts = graph.src_pair_indptr[seed_idx]
        stops = graph.src_pair_indptr[seed_idx + 1]
        pids = concat_ranges(starts, stops)
        cols_global = graph.pair_dst[pids]
        domain = np.unique(cols_global)
        self.domain = domain
        nv = domain.size
        self.row_indptr = np.concatenate(([0], np.cumsum(stops - starts))).astype(np.int64)
        self.row_cols = np.searchsorted(domain, cols_global).astype(np.int64)
        self.row_vals = graph.pair_count[pids].astype(np.float64)
        self.row_pids = pids
        self._sub = sp.csr_matrix((self.row_vals, self.row_cols, self.row_indptr),
                                  shape=(m0, nv))

        self.cnt_total = context.sink_event_total[domain]
        self.sigma_d = context.sigma[domain]
        if context.use_phi:
            self.phi_total = context.sink_phi_total[domain]
        if context.use_kappa:
            self.cat_total = context.sink_cat_counts[domain]
        self.active = (np.ones(m0, dtype=bool) if active is None
                       else np.asarray(active, dtype=bool).copy())
        self.n_active = int(self.active.sum())
        self.n_rescales = 0

        act = self.active.astype(np.float64)
        self.cnt_set = self._sub.T @ act
        if context.use_phi:
            self.phi_set = sp.csr_matrix((context.pair_phi_weight[pids], self.row_cols,
                                          self.row_indptr), shape=(m0, nv)).T @ act
        row_of_nnz = np.repeat(np.arange(m0, dtype=np.int64), np.diff(self.row_indptr))
        if context.use_kappa:
            # the category counts of the active pairs, gathered pair by pair
            c = max(context.pair_cats.shape[1], 1)
            act_nnz = self.active[row_of_nnz]
            apids = self.row_pids[act_nnz]
            ci = context.pair_cats.indptr
            idx = concat_ranges(ci[apids], ci[apids + 1])
            self.cat_set = np.zeros((nv, c), dtype=np.float64)
            if idx.size:
                flat = (np.repeat(self.row_cols[act_nnz], ci[apids + 1] - ci[apids]) * c
                        + context.pair_cats.indices[idx])
                self.cat_set += np.bincount(flat, weights=context.pair_cats.data[idx],
                                            minlength=nv * c).reshape(nv, c)

        self.alpha = np.zeros(nv)
        self.phi = np.zeros(nv)
        self.kw = np.zeros(nv)
        self.kappa = np.zeros(nv)
        self.P = np.zeros(nv)
        self._enabled = [x for x, on in ((self.alpha, context.use_alpha),
                                         (self.phi, context.use_phi),
                                         (self.kappa, context.use_kappa)) if on]
        self._refresh_signals(None)
        self.kmax = float(self.kw.max()) if context.use_kappa and nv else 0.0
        self._refresh_contrast(None)
        self.S = self._sub @ (self.sigma_d * self.P)
        self.num = float((self.sigma_d * self.cnt_set * self.P).sum())
        self.psum = float(self.P.sum())

        order = np.lexsort((row_of_nnz, self.row_cols))
        self.col_rows = row_of_nnz[order]
        self.col_vals = self.row_vals[order]
        self.col_indptr = np.searchsorted(self.row_cols[order], np.arange(nv + 1))

    def _refresh_signals(self, cols) -> None:
        """Recompute alpha/phi/raw-kappa for the given local sinks (None = all)."""
        sel = slice(None) if cols is None else cols
        self.alpha[sel] = np.clip(self.cnt_set[sel] / self.cnt_total[sel], 0.0, 1.0)
        if self.ctx.use_phi:
            tot = self.phi_total[sel]
            self.phi[sel] = np.where(
                tot > 0, np.clip(self.phi_set[sel] / np.where(tot > 0, tot, 1.0), 0.0, 1.0),
                0.0)
        if self.ctx.use_kappa:
            self.kw[sel] = self._weighted_divergence(sel)

    def _weighted_divergence(self, sel):
        nA = np.atleast_2d(self.cat_set[sel])
        nR = np.atleast_2d(self.cat_total[sel]) - nA
        c = nA.shape[1]
        eps = RATING_SMOOTHING
        sA = nA.sum(axis=1)
        sR = nR.sum(axis=1)
        p = (nA + eps) / (sA + eps * c)[:, None]
        q = (nR + eps) / (sR + eps * c)[:, None]
        kl = (p * np.log(p / q)).sum(axis=1)
        f_set = self.cnt_set[sel]
        f_rest = self.cnt_total[sel] - f_set
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(f_rest > 0, f_set / np.where(f_rest > 0, f_rest, 1.0), np.inf)
            balance = np.minimum(ratio, np.where(ratio > 0, 1.0 / ratio, 0.0))
        balance = np.where((f_set <= 0) | (f_rest <= 0), 0.0, balance)
        kw = kl * balance
        kw[(sA + sR) == 0] = 0.0  # sinks without any rated events carry no signal
        return kw

    def _refresh_contrast(self, cols) -> None:
        sel = slice(None) if cols is None else cols
        if self.ctx.use_kappa:
            self.kappa[sel] = self.kw[sel] / self.kmax if self.kmax > 0 else 0.0
        self.P[sel] = contrast_score([x[sel] for x in self._enabled], self.ctx.base)

    def _remove_local(self, r: int) -> None:
        self.active[r] = False
        self.n_active -= 1
        lo, hi = self.row_indptr[r], self.row_indptr[r + 1]
        cols = self.row_cols[lo:hi]
        vals = self.row_vals[lo:hi]
        pids = self.row_pids[lo:hi]
        cnt_old = self.cnt_set[cols].copy()
        p_old = self.P[cols].copy()

        self.cnt_set[cols] -= vals
        if self.ctx.use_phi:
            self.phi_set[cols] -= self.ctx.pair_phi_weight[pids]
        if self.ctx.use_kappa:
            pc = self.ctx.pair_cats
            ci = pc.indptr
            idx = concat_ranges(ci[pids], ci[pids + 1])
            if idx.size:
                c = self.cat_set.shape[1]
                flat = np.repeat(cols, ci[pids + 1] - ci[pids]) * c + pc.indices[idx]
                np.subtract.at(self.cat_set.reshape(-1), flat, pc.data[idx])
        self._refresh_signals(cols)

        if self.ctx.use_kappa:
            new_kmax = float(self.kw.max())
            if new_kmax != self.kmax:
                self.kmax = new_kmax
                self._refresh_contrast(None)
                sp_weights = self.sigma_d * self.P
                self.S = self._sub @ sp_weights
                self.num = float((sp_weights * self.cnt_set).sum())
                self.psum = float(self.P.sum())
                self.n_rescales += 1
                return

        self._refresh_contrast(cols)
        p_new = self.P[cols]
        dp = p_new - p_old
        starts, stops = self.col_indptr[cols], self.col_indptr[cols + 1]
        idx = concat_ranges(starts, stops)
        per_entry = self.col_vals[idx] * np.repeat(self.sigma_d[cols] * dp, stops - starts)
        self.S += np.bincount(self.col_rows[idx], weights=per_entry,
                              minlength=self.active.size)
        self.num += float((self.sigma_d[cols]
                           * (self.cnt_set[cols] * p_new - cnt_old * p_old)).sum())
        self.psum += float(dp.sum())

    def objective(self) -> float:
        return self.num / (self.n_active + self.psum)

    def argmin_active_score(self) -> int:
        return int(np.argmin(np.where(self.active, self.S, np.inf)))


def gather_shave(context, seed_idx):
    """greedy_shaving on GatherState: (removal order, trace, sink scores)."""
    graph = context.graph
    state = GatherState(context, seed_idx)
    best_obj = state.objective()
    best_removals = 0
    trace = [(state.n_active, best_obj)]
    order = []
    while state.n_active > 0:
        r = state.argmin_active_score()
        order.append(r)
        state._remove_local(r)
        if state.n_active == 0:
            break
        obj = state.objective()
        trace.append((state.n_active, obj))
        if obj > best_obj:
            best_obj = obj
            best_removals = len(order)
    keep = np.ones(state.seed_idx.size, dtype=bool)
    keep[order[:best_removals]] = False
    final = GatherState(context, state.seed_idx, active=keep)
    sink_scores = np.zeros(graph.n_objects)
    sink_scores[final.domain] = final.sigma_d * final.cnt_set * final.P
    return order, tuple(trace), sink_scores


def seeding_design(graph, config):
    """The matrix fast_greedy seeds from."""
    context = SignalContext(graph, config)
    if context.use_phi:
        return matricize(graph, time_bin=config.time_bin,
                         column_weights=context.sigma)[0]
    return graph.counts_matrix(column_weights=context.sigma)


def full_peel_fast_greedy(graph, config):
    """fast_greedy with every seed peeled to the end (greedy_shaving's
    default ``beat``): the winner is the first seed of strictly greatest
    objective after its reset. ``meta`` has every key but ``n_pruned_seeds``."""
    context = SignalContext(graph, config)
    seeds, seed_meta = svd_seeds(seeding_design(graph, config), config.num_seeds,
                                 cap_exponent=config.cap_exponent)
    best, n_degenerate = None, 0
    for seed in seeds:
        try:
            result = greedy_shaving(context, seed)
        except DataError:
            n_degenerate += 1
            continue
        assert result.meta["steps"] == result.meta["seed_size"]
        if best is None or result.objective > best.objective:
            best = result
    best.meta.update(seed_meta)
    best.meta["n_degenerate_seeds"] = n_degenerate
    best.meta["signals"] = {"alpha": context.use_alpha, "phi": context.use_phi,
                            "kappa": context.use_kappa}
    return best


# -- spectral seeding --------------------------------------------------------


def svds_truncated_svd(matrix, k: int, tol: float = 0.0, max_iter: int | None = None):
    """Top-k left singular vectors and values (U, s), largest first, from
    scipy's svds with the starting vector truncated_svd draws: the reference
    for its eigsh run on the smaller side's Gram operator."""
    A = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    v0 = np.random.default_rng(SVD_SEED).standard_normal(min(A.shape))
    U, s, _ = svds(A, k=k, tol=tol, maxiter=max_iter, v0=v0)
    # svds returns ascending singular values
    return _canonical_signs(U[:, ::-1].copy()), s[::-1].copy()


def right_vectors(m, U: np.ndarray, s: np.ndarray) -> np.ndarray:
    """V = mᵀU / s, the right singular vectors of the pairs (U, s) of m, with a
    zero column where s = 0."""
    V = np.asarray(m.T @ U)
    return V * np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)


def argsort_truncation(v: np.ndarray, threshold: float, cap: int) -> np.ndarray:
    """Ascending indices of one seed ordering as a stable argsort of every
    entry cut at the count above ``threshold`` and at ``cap``: the reference
    for svd_seeds' truncation."""
    order = np.argsort(-v, kind="stable")
    n_keep = int((v > threshold).sum())
    return np.sort(order[:min(n_keep, cap)])
