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
from scipy.sparse import _sparsetools

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
            if scale is None:
                raise DataError("rating signal requires a declared or inferred scale")
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


def csr_matvec(indptr, cols, vals, x) -> np.ndarray:
    """``csr_matrix((vals, cols, indptr)) @ x`` without scipy's dispatch:
    scipy's kernel adds each row's products in stored order into a zeroed
    output. ``indptr`` and ``cols`` share one integer dtype."""
    y = np.zeros(indptr.size - 1)
    _sparsetools.csr_matvec(indptr.size - 1, x.size, indptr, cols, vals, x, y)
    return y


def _sink_sums(cols, weights, n: int) -> np.ndarray:
    """Per-sink sums of ``weights``, each added from 0.0 in entry order."""
    # float even when there are no entries
    return np.bincount(cols, weights=weights, minlength=n).astype(np.float64, copy=False)


def _select_rows(indptr, keep, *arrays):
    """CSR row selection: the indptr of the rows where ``keep`` is set, and
    the entries of the entry-aligned ``arrays`` in those rows."""
    lens = np.diff(indptr)
    entries = np.repeat(keep, lens)
    new_indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=indptr.dtype)
    np.cumsum(lens[keep], out=new_indptr[1:])
    return (new_indptr, *(a[entries] for a in arrays))


class ContrastState:
    """Exact bookkeeping of per-sink contrast scores, per-user scores, and the
    objective for one seed block, under user removals.

    ``seed_idx`` holds user indices into ``context.graph``; ``active``
    optionally masks the seed rows (sorted by user index) still in the set.
    The signals and the base are the context's. The sink domain is fixed at
    build time to the sinks adjacent to the seed; the objective numerator
    and denominator sum over that domain.

    The seed block stores only the seed rows ``rows`` (ascending; at build,
    the active ones) in CSR form: ``row_indptr``, ``row_cols`` (local sinks,
    ascending within a row) and ``row_vals`` (event counts), plus each
    stored row's burst weights (``row_phi``) and rating-category entries
    (``row_cat_*``) when those signals are on. A removal refreshes alpha,
    phi, raw kappa and P of the removed user's sinks in one pass, and the
    scores of the stored rows by one matvec over the block. Once the active
    rows fall to half of the stored ones, one row selection drops the
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

        # 32-bit block indices where they fit: the matvec streams fewer bytes
        index = np.int32 if pids.size < 2**31 else np.int64
        indptr = np.zeros(m0 + 1, dtype=index)
        np.cumsum(stops - starts, out=indptr[1:])
        cols = cols.astype(index)
        self.rows = np.flatnonzero(self.active)
        if self.rows.size < m0:
            indptr, cols, pids = _select_rows(indptr, self.active, cols, pids)
        self._slot = np.zeros(m0, dtype=np.int64)  # seed row -> stored row
        self._slot[self.rows] = np.arange(self.rows.size)
        self.row_indptr = indptr
        self.row_cols = cols
        self.row_vals = graph.pair_count[pids].astype(np.float64)

        self.cnt_total = context.sink_event_total[domain]
        self.sigma_d = context.sigma[domain]
        # each per-sink sum adds the stored entries in row order; a removed
        # row would add +0.0
        self.cnt_set = _sink_sums(cols, self.row_vals, nv)
        if context.use_phi:
            self.row_phi = context.pair_phi_weight[pids]
            self.phi_set = _sink_sums(cols, self.row_phi, nv)
            phi_total = context.sink_phi_total[domain]
            self._phi_on = phi_total > 0
            self._phi_den = np.where(self._phi_on, phi_total, 1.0)
        if context.use_kappa:
            # each stored row's (local sink * c + category, count) entries,
            # laid out row by row like row_cols
            cats = context.pair_cats[pids]
            c = cats.shape[1]
            self.row_cat_flat = np.repeat(cols.astype(np.int64), np.diff(cats.indptr)) * c \
                + cats.indices
            self.row_cat_count = cats.data
            self.row_cat_indptr = cats.indptr[indptr]
            self.cat_set = _sink_sums(self.row_cat_flat, self.row_cat_count,
                                      nv * c).reshape(nv, c)
            self.cat_total = context.sink_cat_counts[domain]
            self._unrated = ~self.cat_total.any(axis=1)

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
        self._score = self._block_product(self.sigma_d * self.P)
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
            phi = np.where(self._phi_on[cols], phi, 0.0)
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
            kw = kl * (np.minimum(ratio, 1.0 / ratio) * both)
            kw[self._unrated[cols]] = 0.0  # sinks without any rated events carry no signal
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

    def _block_product(self, x) -> np.ndarray:
        """The stored rows' sums of their entries times the per-sink ``x``."""
        return csr_matvec(self.row_indptr, self.row_cols, self.row_vals, x)

    def _compact(self) -> None:
        """Drop the removed rows from the block by one row selection."""
        keep = self.active[self.rows]
        self.rows = self.rows[keep]
        self._slot[self.rows] = np.arange(self.rows.size)
        self._score = self._score[keep]
        entry_arrays = [self.row_cols, self.row_vals]
        if self.ctx.use_phi:
            entry_arrays.append(self.row_phi)
        self.row_indptr, self.row_cols, self.row_vals, *phi = _select_rows(
            self.row_indptr, keep, *entry_arrays)
        if self.ctx.use_phi:
            (self.row_phi,) = phi
        if self.ctx.use_kappa:
            self.row_cat_indptr, self.row_cat_flat, self.row_cat_count = _select_rows(
                self.row_cat_indptr, keep, self.row_cat_flat, self.row_cat_count)

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
        lo, hi = self.row_indptr[i], self.row_indptr[i + 1]
        cols = self.row_cols[lo:hi].astype(np.intp)
        vals = self.row_vals[lo:hi]
        if ctx.use_phi:
            self.phi_set[cols] -= self.row_phi[lo:hi]
        if ctx.use_kappa:
            a, b = self.row_cat_indptr[i], self.row_cat_indptr[i + 1]
            # the flat indices are unique within one row
            self.cat_set.reshape(-1)[self.row_cat_flat[a:b]] -= self.row_cat_count[a:b]
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
            self._score = self._block_product(sp_weights)
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
        self._score += self._block_product(w)
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
