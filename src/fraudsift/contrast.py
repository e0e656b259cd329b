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
from .graph import BipartiteGraph, DataError, concat_ranges

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

        sigma = np.ones(nv, dtype=np.float64)
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
            sigma = temporal.sigma_from_drop_weights(drop_w)
            self.drop_weights = drop_w
        else:
            self.drop_weights = np.zeros(nv, dtype=np.float64)

        if graph.sink_prior is not None:
            sigma = sigma * graph.sink_prior
        self.sigma = sigma

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


class ContrastState:
    """Exact bookkeeping of per-sink contrast scores, per-user scores, and the
    objective for one seed block, under user removals.

    ``seed_idx`` holds user indices into ``context.graph``; ``active``
    optionally masks the seed rows (sorted by user index) still in the set.
    The signals and the base are the context's. The sink domain is fixed at
    build time to the sinks adjacent to the seed; the objective numerator
    and denominator sum over that domain.
    """

    def __init__(self, context: SignalContext, seed_idx, active=None):
        self.ctx = context
        graph = context.graph

        seed_idx = np.unique(np.asarray(seed_idx, dtype=np.int64))
        if seed_idx.size == 0:
            raise DataError("empty seed")
        self.seed_idx = seed_idx
        m0 = seed_idx.size

        starts = graph.src_pair_indptr[seed_idx]
        stops = graph.src_pair_indptr[seed_idx + 1]
        pids = concat_ranges(starts, stops)
        if pids.size == 0:
            raise DataError("degenerate seed: no incident edges")
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

        if active is None:
            self.active = np.ones(m0, dtype=bool)
        else:
            self.active = np.asarray(active, dtype=bool).copy()
            if self.active.shape != (m0,):
                raise DataError("active mask must match the seed size")
        self.n_active = int(self.active.sum())
        self.n_rescales = 0

        # each per-sink sum over the active rows adds their entries in row
        # order; an inactive row adds +0.0
        act = self.active.astype(np.float64)
        self.cnt_set = self._sub.T @ act
        if context.use_phi:
            self.phi_set = sp.csr_matrix((context.pair_phi_weight[pids], self.row_cols,
                                          self.row_indptr), shape=(m0, nv)).T @ act
        if context.use_kappa:
            # each seed row's (local sink * c + category, count) entries, laid
            # out row by row like row_cols
            cats = context.pair_cats[pids]
            c = cats.shape[1]
            self.row_cat_flat = np.repeat(self.row_cols, np.diff(cats.indptr)) * c + cats.indices
            self.row_cat_count = cats.data
            self.row_cat_indptr = cats.indptr[self.row_indptr]
            self.cat_set = (sp.csr_matrix((self.row_cat_count, self.row_cat_flat,
                                           self.row_cat_indptr), shape=(m0, nv * c)).T
                            @ act).reshape(nv, c)

        self.alpha = np.zeros(nv)
        self.phi = np.zeros(nv)
        self.kw = np.zeros(nv)
        self.kappa = np.zeros(nv)
        self.P = np.zeros(nv)
        # the enabled signals in the order contrast_score sums them
        self._enabled = [x for x, on in ((self.alpha, context.use_alpha),
                                         (self.phi, context.use_phi),
                                         (self.kappa, context.use_kappa)) if on]
        self._refresh_signals(None)
        self.kmax = float(self.kw.max()) if context.use_kappa and nv else 0.0
        self._refresh_contrast(None)
        self.S = self._sub @ (self.sigma_d * self.P)
        self.S[~self.active] = np.inf  # removed users never win argmin
        self.num = float((self.sigma_d * self.cnt_set * self.P).sum())
        self.psum = float(self.P.sum())

    # -- signal recomputation ----------------------------------------------

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

    # -- removal ------------------------------------------------------------

    def _remove_local(self, r: int) -> None:
        """Drop seed row ``r`` from the active set, updating the sinks adjacent
        to it and, with one matvec over the seed block, the user scores;
        exact within float drift."""
        if not self.active[r]:
            raise DataError("user already removed")
        self.active[r] = False
        self.n_active -= 1
        self.S[r] = np.inf

        lo, hi = self.row_indptr[r], self.row_indptr[r + 1]
        cols = self.row_cols[lo:hi]
        if cols.size == 0:
            return
        vals = self.row_vals[lo:hi]

        cnt_old = self.cnt_set[cols].copy()
        p_old = self.P[cols].copy()

        self.cnt_set[cols] -= vals
        if self.ctx.use_phi:
            self.phi_set[cols] -= self.ctx.pair_phi_weight[self.row_pids[lo:hi]]
        if self.ctx.use_kappa:
            a, b = self.row_cat_indptr[r], self.row_cat_indptr[r + 1]
            # the flat indices are unique within one row
            self.cat_set.reshape(-1)[self.row_cat_flat[a:b]] -= self.row_cat_count[a:b]

        self._refresh_signals(cols)

        # kappa is normalized by the current maximum: a new maximum rescales
        # every sink
        new_kmax = float(self.kw.max()) if self.ctx.use_kappa else self.kmax
        if new_kmax != self.kmax:
            self.kmax = new_kmax
            self._refresh_contrast(None)
            sp_weights = self.sigma_d * self.P
            self.S = self._sub @ sp_weights
            self.S[~self.active] = np.inf
            self.num = float((sp_weights * self.cnt_set).sum())
            self.psum = float(self.P.sum())
            self.n_rescales += 1
            return

        self._refresh_contrast(cols)
        p_new = self.P[cols]
        dp = p_new - p_old
        # rows hold ascending columns, so each row sums in the order of a
        # per-sink gather; the zero entries of w add +0.0
        w = np.zeros(self.sigma_d.size)
        w[cols] = self.sigma_d[cols] * dp
        self.S += self._sub @ w
        self.num += float((self.sigma_d[cols]
                           * (self.cnt_set[cols] * p_new - cnt_old * p_old)).sum())
        self.psum += float(dp.sum())

    # -- queries --------------------------------------------------------------

    def objective(self) -> float:
        """Expected block density over the contrast distribution; the quantity shaved for."""
        if self.n_active == 0:
            raise DataError("empty set")
        return self.num / (self.n_active + self.psum)

    def argmin_active_score(self) -> int:
        """Active row of least score; removed rows hold +inf."""
        return int(np.argmin(self.S))

