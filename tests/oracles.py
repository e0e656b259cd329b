"""Straightforward reference implementations the vectorized code is checked against."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from fraudsift import temporal
from fraudsift.temporal import MAX_BINS, TimeSeriesHist


def triplet_matrix(rows, cols, values, shape) -> sp.csr_matrix:
    """CSR matrix from (row, col, value) triplets; duplicate entries are summed."""
    coo = sp.coo_matrix((np.asarray(values, dtype=np.float64),
                         (np.asarray(rows), np.asarray(cols))), shape=shape)
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


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


def signal_arrays(graph, significance: float = 0.5):
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
        pairs = temporal.multiburst(hist, significance=significance)
        if pairs:
            w = np.zeros(times.size)
            for p in pairs:
                a = np.searchsorted(times, p.awakening[0], side="left")
                b = np.searchsorted(times, p.burst[0], side="right")
                w[a:b] += p.altitude * p.slope
            sink_total[v] = w.sum()
            np.add.at(pair_w, graph.sink_event_pair[lo:hi], w)
        drop_w[v] = temporal.drop_edge_weight(temporal.max_drop(hist))
    return pair_w, sink_total, drop_w


def delimited_text(graph) -> str:
    """The CSV layout of write_delimited, one event record at a time."""
    lines = []
    for rec in graph.events():
        fields = [rec.user, rec.object]
        if rec.timestamp is not None:
            fields.append(str(rec.timestamp))
        if rec.rating is not None:
            fields.append(f"{rec.rating:g}")
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def pair_counts(graph, by_sink: bool = False) -> list[tuple[str, str, int]]:
    """(user, object, event count) per stored pair, in source order or, with
    ``by_sink``, in the order of the graph's sink-side index."""
    order = graph.sink_pair_order if by_sink else range(graph.n_pairs)
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
