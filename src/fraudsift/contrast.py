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
    rating tables. The graph is only read, so contexts built on one graph
    with different configs do not interfere.

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
        nv, npairs = graph.n_objects, graph.n_pairs

        self.sink_event_total = graph.sink_event_counts()
        self.pair_phi_weight = np.zeros(npairs, dtype=np.float64)
        self.sink_phi_total = np.zeros(nv, dtype=np.float64)

        if self.use_phi:
            times = graph.sink_event_time.astype(np.float64)
            indptr = graph.sink_event_indptr
            hists = temporal.histogram_segments(times, indptr)
            event_w, self.sink_phi_total, drop_w, *_ = temporal.spike_weights(
                hists, times, indptr)
            # each pair's events sit in one sink, in time order: the sums match
            # a per-sink accumulation exactly
            self.pair_phi_weight = np.bincount(graph.sink_event_pair, weights=event_w,
                                               minlength=npairs)
            self.sigma = temporal.sigma_from_drop_weights(drop_w)
            self.drop_weights = drop_w
        else:
            self.sigma = np.ones(nv, dtype=np.float64)
            self.drop_weights = np.zeros(nv, dtype=np.float64)

        if self.use_kappa:
            scale = graph.scale
            self.category_values = np.asarray(
                [v for v in scale.values if v not in scale.neutral], dtype=np.float64)
            c = max(self.category_values.size, 1)
            # per-pair (category, count) rows for incremental updates; neutral
            # and off-scale ratings carry no category
            rated = np.isin(graph.event_rating, self.category_values)
            pair = np.repeat(np.arange(npairs, dtype=np.int64),
                             graph.pair_count.astype(np.int64))[rated]
            cat = np.searchsorted(self.category_values, graph.event_rating[rated])
            ones = np.ones(pair.size)
            self.pair_cats = sp.csr_matrix((ones, (pair, cat)), shape=(npairs, c))
            self.sink_cat_counts = sp.coo_matrix(
                (ones, (graph.pair_dst[pair], cat)), shape=(nv, c)).toarray()


def _sink_sums(block, n: int) -> np.ndarray:
    """Per-column sums of ``block``'s entries, each added from 0.0 in row order."""
    # float even when there are no entries
    return np.bincount(block.indices, weights=block.data,
                       minlength=n).astype(np.float64, copy=False)


class ContrastState:
    """Exact bookkeeping of per-sink contrast scores, per-user scores, and the
    objective for one seed block, under user removals.

    ``seed_idx`` holds user indices into ``context.graph``; ``active``
    optionally masks the seed rows (sorted by user index) still in the set.
    The signals and the base are the context's. The sink domain is fixed at
    build time to the sinks adjacent to the seed; the objective numerator
    and denominator sum over that domain.

    The seed block is up to three ``scipy.sparse.csr_matrix`` over the stored
    seed rows ``rows`` (ascending; at build, the active ones), in one row
    layout: ``counts`` holds each row's event count per local sink, columns
    ascending within a row; ``bursts`` the same entries' burst weights when
    phi is on; ``ratings`` each row's rating-category counts at column
    local sink * c + category when kappa is on. A removal refreshes alpha,
    phi, raw kappa and P of the removed user's sinks in one pass, and the
    scores of the stored rows by one product ``counts @ w``. Once the active
    rows fall to half of the stored ones, boolean row indexing drops the
    removed rows. ``S`` is the score of every seed row, +inf on removed ones.
    """

    def __init__(self, context: SignalContext, seed_idx, active=None):
        self.ctx = context
        graph = context.graph

        seed_idx = sorted_unique(np.asarray(seed_idx, dtype=np.int64))
        if seed_idx.size == 0:
            raise DataError("empty seed")
        self.seed_idx = seed_idx
        m0 = seed_idx.size
        if active is None:
            self.active = np.ones(m0, dtype=bool)
        else:
            self.active = np.asarray(active, dtype=bool).copy()
            if self.active.shape != (m0,):
                raise DataError("active mask must match the seed size")
        self.n_active = int(self.active.sum())
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
        self.rows = np.flatnonzero(self.active)
        self._slot = np.zeros(m0, dtype=np.int64)  # seed row -> stored row
        self._slot[self.rows] = np.arange(self.rows.size)

        def block(data, indices, row_indptr, width):
            m = sp.csr_matrix((data, indices, row_indptr), shape=(m0, width))
            return m[self.active] if self.rows.size < m0 else m

        self.cnt_total = context.sink_event_total[domain]
        self.sigma_d = context.sigma[domain]
        # each per-sink sum adds the stored entries in row order; a removed
        # row would add +0.0
        self.counts = block(graph.pair_count[pids], cols, indptr, nv)
        self.cnt_set = _sink_sums(self.counts, nv)
        if context.use_phi:
            self.bursts = block(context.pair_phi_weight[pids], cols, indptr, nv)
            self.phi_set = _sink_sums(self.bursts, nv)
            phi_total = context.sink_phi_total[domain]
            # burst weights are >= 0: a sink of zero total keeps phi_set 0.0, so phi 0.0
            self._phi_den = np.where(phi_total > 0, phi_total, 1.0)
        if context.use_kappa:
            cats = context.pair_cats[pids]
            c = cats.shape[1]
            flat = np.repeat(cols, np.diff(cats.indptr)) * c + cats.indices
            self.ratings = block(cats.data, flat, cats.indptr[indptr], nv * c)
            self.cat_set = _sink_sums(self.ratings, nv * c).reshape(nv, c)
            self.cat_total = context.sink_cat_counts[domain]

        self.alpha = np.zeros(nv)
        self.phi = np.zeros(nv)
        self.kw = np.zeros(nv)
        self.kappa = np.zeros(nv)
        self.P = np.zeros(nv)
        self._w = np.zeros(nv)  # the product's weights; zero between steps
        every = np.arange(nv)
        signals = self._signals(every, self.cnt_set)
        self.kmax = float(self.kw.max()) if context.use_kappa and nv else 0.0
        self._contrast(every, *signals)
        # the scores of the stored rows
        self._score = self.counts @ (self.sigma_d * self.P)
        self.num = float((self.sigma_d * self.cnt_set * self.P).sum())
        self.psum = float(self.P.sum())

    @property
    def S(self) -> np.ndarray:
        """Score of every seed row; removed rows hold +inf."""
        S = np.full(self.active.size, np.inf)
        S[self.rows] = self._score
        return S

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
        """Drop the removed rows from the block."""
        keep = self.active[self.rows]
        self.rows = self.rows[keep]
        self._slot[self.rows] = np.arange(self.rows.size)
        self._score = self._score[keep]
        self.counts = self.counts[keep]
        if self.ctx.use_phi:
            self.bursts = self.bursts[keep]
        if self.ctx.use_kappa:
            self.ratings = self.ratings[keep]

    # -- removal ------------------------------------------------------------

    def _remove_local(self, r: int) -> None:
        """Drop seed row ``r`` from the active set, updating the sinks adjacent
        to it and, with one matvec over the stored rows, the user scores;
        exact within float drift."""
        if not self.active[r]:
            raise DataError("user already removed")
        self.active[r] = False
        self.n_active -= 1
        i = self._slot[r]
        self._score[i] = np.inf

        ctx = self.ctx
        lo, hi = self.counts.indptr[i], self.counts.indptr[i + 1]
        cols = self.counts.indices[lo:hi].astype(np.intp)
        vals = self.counts.data[lo:hi]
        if ctx.use_phi:
            self.phi_set[cols] -= self.bursts.data[lo:hi]
        if ctx.use_kappa:
            a, b = self.ratings.indptr[i], self.ratings.indptr[i + 1]
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

    def argmin_active_score(self) -> int:
        """Active row of least score; removed rows hold +inf."""
        return int(self.rows[self._score.argmin()])
