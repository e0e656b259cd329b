"""Straightforward reference implementations the vectorized code is checked against."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fraudsift import DataError
from fraudsift.contrast import ContrastState
from fraudsift.graph import concat_ranges
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
    """Segment ``s`` of a SegmentHistograms as a TimeSeriesHist."""
    first, last = hists.bin_indptr[s], hists.bin_indptr[s + 1]
    lo, width = float(hists.lo[s]), float(hists.widths[s])
    if hists.spread[s]:
        # linspace's edges i * width + lo, shifted by half a bin
        centers = np.arange(last - first) * width + lo + width / 2.0
    else:
        centers = np.full(last - first, lo)
    return TimeSeriesHist(centers, hists.counts[first:last], width)


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


def user_scores(state) -> dict[str, float]:
    """Incremental score ``S`` of every active seed user, by user id."""
    ids = state.ctx.graph.user_ids
    return {ids[state.seed_idx[r]]: float(state.S[r]) for r in np.flatnonzero(state.active)}


def seed_row(state, user: str) -> int:
    """Row of ``user`` in the seed block of ``state``."""
    ui = state.ctx.graph.user_index(user)
    row = int(np.searchsorted(state.seed_idx, ui))
    assert state.seed_idx[row] == ui, f"{user} not in the seed"
    return row


class GatherState(ContrastState):
    """ContrastState with the column-gather updates it used before the seed-block
    matvec: a CSC mirror of the seed block; a removal gathers every (sink, seed
    user) entry of the removed user's sinks and sums them per user with
    np.bincount, rebuilds its rating-category entries from the per-pair table
    and subtracts them with np.subtract.at; removed users keep finite scores and
    are masked at argmin."""

    def __init__(self, context, seed_idx, active=None):
        super().__init__(context, seed_idx, active=active)
        m0, nv = self.active.size, self.domain.size
        row_of_nnz = np.repeat(np.arange(m0, dtype=np.int64), np.diff(self.row_indptr))
        order = np.lexsort((row_of_nnz, self.row_cols))
        self.col_rows = row_of_nnz[order]
        self.col_vals = self.row_vals[order]
        self.col_indptr = np.searchsorted(self.row_cols[order], np.arange(nv + 1))
        if context.use_kappa:
            # the category counts of the active pairs, gathered pair by pair
            c = self.cat_set.shape[1]
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
            self._refresh_signals(None)
            self.kmax = float(self.kw.max())
            self._refresh_contrast(None)
            self.num = float((self.sigma_d * self.cnt_set * self.P).sum())
            self.psum = float(self.P.sum())
        self.S = self._sub @ (self.sigma_d * self.P)

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
