"""Contrast suspiciousness: dynamic sink scoring against a shrinking user set.

Every sink gets a score in (0, 1] combining three signals, each mapped
through an exponential scale b^(x-1): the involvement ratio of the current
user set in the sink's traffic, the share of in-burst activity the set
contributed, and the balance-weighted divergence between the set's ratings
and everyone else's. ContrastState maintains the per-sink scores, per-user
scores, and the running objective exactly under single-user removals.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import temporal
from .graph import BipartiteGraph, DataError, concat_ranges, sorted_unique

if TYPE_CHECKING:
    from .detector import DetectorConfig

logger = logging.getLogger(__name__)

SIGNAL_NAMES = ("alpha", "phi", "kappa")
# Additive smoothing of the rating histograms behind kappa; it keeps the
# divergence finite on disjoint supports.
RATING_SMOOTHING = 1e-3


def contrast_score(signals, base: float):
    """Joint suspiciousness b^(sum of (x - 1) over the enabled signals), summed
    in the order given; a signal left out contributes a factor of one."""
    expo = signals[0] - 1.0
    for x in signals[1:]:
        expo = expo + (x - 1.0)
    return base ** expo


class SignalContext:
    """The signal set of one run and the graph-wide precompute shared by every
    shaving run: spike profiles, the per-pair burst weights behind the
    temporal signal, the drop-based column weights ``sigma``, and per-sink
    rating tables. The burst and rating tables exist only while their signal
    is on; with phi off, ``sigma`` is all ones. The graph is only read, so
    contexts built on one graph with different configs do not interfere.

    ``use_alpha``, ``use_phi`` and ``use_kappa`` are decided here and only
    here, from ``config.signals`` and the data: ``signals=None`` enables
    every signal the data carries, and an explicit request for a signal the
    data cannot support is a DataError. ``base`` is ``config.base``.

    The sink histograms hold only their kept bins (non-empty bins and the
    ends of empty runs, ``temporal.SegmentHistograms``), and one burst/drop
    frontier covers every sink (``temporal.spike_weights``): all windows
    advance together, one level per pass. It emits bin-index triples into
    one reducer, which gives the bytes of the per-sink definition."""

    def __init__(self, graph: BipartiteGraph, config: DetectorConfig):
        signals = config.signals
        if signals is None:
            self.use_alpha = True
            self.use_phi = graph.has_timestamps
            self.use_kappa = graph.has_ratings
        else:
            unknown = set(signals) - set(SIGNAL_NAMES)
            if unknown:
                raise DataError(f"unknown signals: {sorted(unknown)}")
            if not signals:
                raise DataError("at least one signal must be enabled")
            self.use_alpha = "alpha" in signals
            self.use_phi = "phi" in signals
            self.use_kappa = "kappa" in signals
            if self.use_phi and not graph.has_timestamps:
                raise DataError("signal 'phi' requires timestamps; "
                                "matricization requires timestamps")
            if self.use_kappa and not graph.has_ratings:
                raise DataError("signal 'kappa' requires ratings")
        self.base = config.base
        self.graph = graph

        self.sink_event_total = graph.sink_event_counts()
        if self.use_phi:
            self.pair_phi_weight, self.sink_phi_total, drop_w = _phi_tables(graph)
            self.sigma = temporal.sigma_from_drop_weights(drop_w)
            self.drop_weights = drop_w
        else:
            self.sigma = np.ones(graph.n_objects, dtype=np.float64)

        if self.use_kappa:
            scale = graph.scale
            self.category_values = np.asarray(
                [v for v in scale.values if v not in scale.neutral], dtype=np.float64)
            self.pair_cats, self.sink_cat_counts = _category_tables(graph, self.category_values)


def _phi_tables(graph: BipartiteGraph):
    """Each pair's burst weight, each sink's phi denominator and drop edge weight."""
    times = graph.sink_event_time.astype(np.float64)
    indptr = graph.sink_event_indptr
    hists = temporal.histogram_segments(times, indptr)
    event_w, sink_phi_total, drop_w, *_ = temporal.spike_weights(hists, times, indptr)
    del times, hists
    # each pair's events sit in one sink, in time order: the sums match a
    # per-sink accumulation exactly
    pair_phi_weight = np.bincount(graph.sink_event_pair, weights=event_w,
                                  minlength=graph.n_pairs)
    return pair_phi_weight, sink_phi_total, drop_w


def _category_tables(graph: BipartiteGraph, category_values: np.ndarray):
    """Each pair's rating-category counts as CSR rows, for incremental
    updates, and each sink's as a dense table; neutral and off-scale ratings
    carry no category. Both are read off the sorted keys pair * c + category
    of the rated events."""
    npairs, c = graph.n_pairs, max(category_values.size, 1)
    ratings = graph.event_rating
    rated = np.isin(ratings, category_values)
    key = np.repeat(np.arange(0, npairs * c, c), graph.pair_count.astype(np.int64))[rated]
    key += np.searchsorted(category_values, ratings[rated])
    del rated
    key.sort()
    at = np.flatnonzero(np.diff(key, prepend=-1))
    pair, cat = np.divmod(key[at], c)
    counts = np.diff(at, append=key.size).astype(np.float64)
    del key, at
    pair_cats = sp.csr_matrix((counts, cat, np.searchsorted(pair, np.arange(npairs + 1))),
                              shape=(npairs, c))
    # float even when no event is rated
    sink_cat_counts = np.bincount(graph.pair_dst[pair] * c + cat, weights=counts,
                                  minlength=graph.n_objects * c).astype(np.float64, copy=False)
    return pair_cats, sink_cat_counts.reshape(graph.n_objects, c)


class ContrastState:
    """Exact bookkeeping of per-sink contrast scores, per-user scores, and the
    objective for one seed block, under user removals.

    ``seed_idx`` holds user indices into ``context.graph``, integers in
    ``[0, n_users)``, else a DataError; the seed rows are sorted by user
    index, and every one is active at build. The signals and
    the base are the context's. The sink domain is fixed at build time to
    the sinks adjacent to the seed; the objective numerator and denominator
    sum over that domain.

    The seed block is read-only and built once in one row layout over every
    seed row: ``seed_counts``, a ``scipy.sparse.csr_matrix``, holds each
    row's event count per local sink, columns ascending within a row;
    ``bursts`` the same entries' burst weights, aligned with
    ``seed_counts.data``, when phi is on; ``ratings``, a CSR matrix, each
    row's rating-category counts at column local sink * c + category when
    kappa is on. A removal of seed row ``r`` reads row ``r`` there and
    refreshes alpha, phi, raw kappa and P of its sinks in one pass. Only the
    product's matrix ``counts`` changes: it holds the seed-block rows
    ``rows`` (ascending; after a reset, the active ones), and one product
    ``counts @ w`` refreshes their scores. Once the active rows fall to half
    of ``rows``, boolean row indexing drops the removed ones from
    ``counts``. ``reset(active)`` recomputes every sum, signal and score
    from the seed block for the seed rows a mask keeps.
    """

    def __init__(self, context: SignalContext, seed_idx):
        self.ctx = context
        graph = context.graph

        seed_idx = np.asarray(seed_idx)
        if seed_idx.size == 0:
            raise DataError("empty seed")
        if seed_idx.dtype.kind not in "iu":
            raise DataError(f"seed indices must be integers, got dtype {seed_idx.dtype}")
        if seed_idx.min() < 0 or seed_idx.max() >= graph.n_users:
            raise DataError(f"seed indices must lie in [0, {graph.n_users}), got "
                            f"{seed_idx.min()} to {seed_idx.max()}")
        seed_idx = sorted_unique(seed_idx.astype(np.int64))
        self.seed_idx = seed_idx
        m0 = seed_idx.size
        self.n_rescales = 0

        starts = graph.src_pair_indptr[seed_idx]
        stops = graph.src_pair_indptr[seed_idx + 1]
        pids = concat_ranges(starts, stops)
        if pids.size == 0:
            raise DataError("degenerate seed: no incident edges")
        domain, cols = np.unique(graph.pair_dst[pids], return_inverse=True)
        self.domain = domain
        nv = domain.size

        indptr = np.zeros(m0 + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=indptr[1:])
        self.cnt_total = context.sink_event_total[domain]
        self.sigma_d = context.sigma[domain]
        self.seed_counts = sp.csr_matrix((graph.pair_count[pids], cols, indptr), shape=(m0, nv))
        if context.use_phi:
            self.bursts = context.pair_phi_weight[pids]
            phi_total = context.sink_phi_total[domain]
            # burst weights are >= 0: a sink of zero total keeps phi_set 0.0, so phi 0.0
            self._phi_den = np.where(phi_total > 0, phi_total, 1.0)
        if context.use_kappa:
            cats = context.pair_cats[pids]
            c = cats.shape[1]
            flat = np.repeat(cols, np.diff(cats.indptr)) * c + cats.indices
            self.ratings = sp.csr_matrix((cats.data, flat, cats.indptr[indptr]),
                                         shape=(m0, nv * c))
            self.cat_total = context.sink_cat_counts[domain]

        self.alpha = np.zeros(nv)
        self.phi = np.zeros(nv)
        self.kw = np.zeros(nv)
        self.kappa = np.zeros(nv)
        self.P = np.zeros(nv)
        self._w = np.zeros(nv)  # the product's weights; zero between steps
        self.reset(np.ones(m0, dtype=bool))

    def reset(self, active) -> None:
        """Make the seed rows that the boolean mask ``active`` keeps the set,
        recomputing every sum, signal and score from the seed block; the
        count of kappa rescales carries on."""
        active = np.array(active, dtype=bool)
        m0 = self.seed_idx.size
        if active.shape != (m0,):
            raise DataError("active mask must match the seed size")
        self.active = active
        self.n_active = int(active.sum())
        self.rows = np.flatnonzero(active)

        def sink_sums(m, data):
            # per-sink sums in row order, each entry times its row's active
            # flag: entries are >= 0, so an inactive row adds +0.0 and every
            # sum keeps its bits; float even when there are no entries
            w = data * np.repeat(active, np.diff(m.indptr))
            return np.bincount(m.indices, weights=w,
                               minlength=m.shape[1]).astype(np.float64, copy=False)

        counts = self.seed_counts
        self.counts = counts[active] if self.rows.size < m0 else counts
        self.cnt_set = sink_sums(counts, counts.data)
        if self.ctx.use_phi:
            self.phi_set = sink_sums(counts, self.bursts)
        if self.ctx.use_kappa:
            self.cat_set = sink_sums(self.ratings, self.ratings.data).reshape(
                self.cat_total.shape)

        every = np.arange(self.P.size)
        signals = self._signals(every, self.cnt_set)
        # the domain is never empty
        self.kmax = float(self.kw.max()) if self.ctx.use_kappa else 0.0
        self._contrast(every, *signals)
        # the scores of the rows of counts
        self._score = self.counts @ (self.sigma_d * self.P)
        self.num = float((self.sigma_d * self.cnt_set * self.P).sum())
        self.psum = float(self.P.sum())

    # -- signal recomputation ----------------------------------------------

    def _signals(self, cols, cnt):
        """Store and return alpha, phi and raw kappa of the local sinks
        ``cols``, whose set counts are ``cnt``; a disabled signal is None."""
        ctx = self.ctx
        tot = self.cnt_total[cols]
        # set counts are whole numbers within the sink totals: alpha lies in [0, 1]
        alpha = cnt / tot
        self.alpha[cols] = alpha
        phi = kw = None
        if ctx.use_phi:
            phi = self.phi_set[cols] / self._phi_den[cols]
            np.minimum(np.maximum(phi, 0.0, out=phi), 1.0, out=phi)
            self.phi[cols] = phi
        if ctx.use_kappa:
            # the set's and the rest's category counts, smoothed into the
            # rating distributions p and q
            n = np.empty((2, cols.size, self.cat_set.shape[1]))
            n_set, n_rest = n
            self.cat_set.take(cols, axis=0, out=n_set)
            np.subtract(self.cat_total.take(cols, axis=0), n_set, out=n_rest)
            smoothing_total = RATING_SMOOTHING * n.shape[2]
            p, q = (n + RATING_SMOOTHING) / (np.add.reduce(n, axis=2)
                                             + smoothing_total)[:, :, None]
            kl = np.add.reduce(p * np.log(p / q), axis=1)
            # balance min(ratio, 1/ratio), ratio = set/rest counts, where both
            # sides have events, else 0. The counts are whole numbers: the
            # maxima only keep the other sinks finite, and ``both`` is 1 or 0.
            f_rest = tot - cnt
            ratio = np.maximum(cnt, 1.0) / np.maximum(f_rest, 1.0)
            both = np.minimum(np.minimum(cnt, f_rest), 1.0)
            # a sink without rated events has all-zero counts: p == q bit for bit, kw 0.0
            kw = kl * (np.minimum(ratio, 1.0 / ratio) * both)
            self.kw[cols] = kw
        return alpha, phi, kw

    def _contrast(self, cols, alpha, phi, kw):
        """Store kappa and P of the local sinks ``cols`` from their signals; return P."""
        ctx = self.ctx
        signals = []
        if ctx.use_alpha:
            signals.append(alpha)
        if ctx.use_phi:
            signals.append(phi)
        if ctx.use_kappa:
            kappa = kw / self.kmax if self.kmax > 0 else np.zeros(kw.size)
            self.kappa[cols] = kappa
            signals.append(kappa)
        P = contrast_score(signals, ctx.base)
        self.P[cols] = P
        return P

    def _compact(self) -> None:
        """Drop the removed rows from the product's matrix."""
        keep = self.active[self.rows]
        self.rows = self.rows[keep]
        self._score = self._score[keep]
        self.counts = self.counts[keep]

    # -- removal ------------------------------------------------------------

    def _remove_local(self, r: int) -> None:
        """Drop seed row ``r`` from the active set, updating the sinks adjacent
        to it and, with one matvec over ``counts``, the user scores; exact
        within float drift."""
        if not self.active[r]:
            raise DataError("user already removed")
        self.active[r] = False
        self.n_active -= 1
        self._score[np.searchsorted(self.rows, r)] = np.inf  # rows ascends

        ctx = self.ctx
        lo, hi = self.seed_counts.indptr[r], self.seed_counts.indptr[r + 1]
        cols = self.seed_counts.indices[lo:hi].astype(np.intp)
        vals = self.seed_counts.data[lo:hi]
        if ctx.use_phi:
            self.phi_set[cols] -= self.bursts[lo:hi]
        if ctx.use_kappa:
            a, b = self.ratings.indptr[r], self.ratings.indptr[r + 1]
            # the flat indices are unique within one row
            self.cat_set.reshape(-1)[self.ratings.indices[a:b]] -= self.ratings.data[a:b]
        if 2 * self.n_active <= self.rows.size:
            self._compact()
        if cols.size == 0:
            return

        cnt_old = self.cnt_set[cols]
        p_old = self.P[cols]
        cnt = cnt_old - vals
        self.cnt_set[cols] = cnt
        signals = self._signals(cols, cnt)

        # kappa is normalized by the current maximum: a new maximum rescales
        # every sink
        new_kmax = float(np.maximum.reduce(self.kw)) if ctx.use_kappa else self.kmax
        if new_kmax != self.kmax:
            self.kmax = new_kmax
            self._contrast(np.arange(self.P.size), self.alpha, self.phi, self.kw)
            sp_weights = self.sigma_d * self.P
            self._score = self.counts @ sp_weights
            self._score[~self.active[self.rows]] = np.inf
            self.num = float((sp_weights * self.cnt_set).sum())
            self.psum = float(self.P.sum())
            self.n_rescales += 1
            return

        p_new = self._contrast(cols, *signals)
        dp = p_new - p_old
        sigma = self.sigma_d[cols]
        # rows hold ascending columns, so each row sums in the order of a
        # per-sink gather; the zero entries of w add +0.0
        w = self._w
        w[cols] = sigma * dp
        self._score += self.counts @ w
        w[cols] = 0.0
        self.num += float(np.add.reduce(sigma * (cnt * p_new - cnt_old * p_old)))
        self.psum += float(np.add.reduce(dp))

    # -- queries --------------------------------------------------------------

    def objective(self) -> float:
        """Expected block density over the contrast distribution; the quantity shaved for."""
        if self.n_active == 0:
            raise DataError("empty set")
        return self.num / (self.n_active + self.psum)

    def ceiling(self) -> float:
        """An upper bound on the objective of every non-empty subset of the
        active set; -inf when the set is empty.

        Let S be such a subset. A sink's alpha and phi at S are at most their
        values at the active set (counts and burst weights are >= 0), and
        kappa never exceeds 1, so P at S is at most Q, the contrast of alpha
        and phi alone (1 when neither is on). So the numerator at S is at
        most the sum over S of the row scores u = counts @ (sigma * Q). Each
        of the k enabled signals lies in [0, 1], so every P is at least
        base^-k and the denominator at least |S| + |domain| * base^-k. For
        |S| = t the best case takes the t largest u: the bound is the largest
        cumsum(u, descending)[t - 1] / (t + |domain| * base^-k)."""
        ctx = self.ctx
        signals = ([self.alpha] if ctx.use_alpha else []) + ([self.phi] if ctx.use_phi else [])
        q = contrast_score(signals, ctx.base) if signals else 1.0
        # the live rows of the product, without copying the block
        u = (self.counts @ (self.sigma_d * q))[self.active[self.rows]]
        u[::-1].sort()
        floor = self.P.size * ctx.base ** -(ctx.use_alpha + ctx.use_phi + ctx.use_kappa)
        bound = np.cumsum(u)
        bound /= np.arange(1, u.size + 1) + floor
        return float(bound.max(initial=-np.inf))

    def argmin_active_score(self) -> int:
        """Active row of least score; removed rows hold +inf."""
        return int(self.rows[self._score.argmin()])
