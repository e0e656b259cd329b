"""Seeded greedy shaving: spectral seed generation, the peeling loop, and the
driver that returns the best user block with its sink ranking."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .contrast import ContrastState, SignalContext
from .graph import BipartiteGraph, DataError, unique_inverse
from .spectral import ConvergenceError, truncated_svd

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection knobs; ``signals=None`` enables whatever the data supports.

    ``base`` must be finite and above 1, ``num_seeds`` an integer of at least 1,
    ``time_bin`` finite and positive, and ``cap_exponent`` None or finite and
    positive; anything else is a DataError. Which signals run is decided by
    ``SignalContext``.

    Seeding runs ARPACK's Lanczos (``eigsh``) on the Gram operator of the
    seeding matrix's smaller side, at its default (machine-precision)
    tolerance, from a starting vector drawn from ``spectral.SVD_SEED``, so
    seeds are reproducible. Lanczos sees only the core of that operator, the
    rows that share a column; single-entry columns fold into its diagonal,
    and every other row is an exact eigenpair (see ``spectral``). When ARPACK
    hits its iteration cap, seeding logs a warning and goes on with the
    singular vectors that did converge.
    """

    base: float = 32.0
    num_seeds: int = 10
    signals: tuple[str, ...] | None = None
    time_bin: float = 86400.0
    cap_exponent: float | None = 1 / 1.6

    def __post_init__(self):
        if not (math.isfinite(self.base) and self.base > 1):
            raise DataError(f"scaling base must be finite and exceed 1, got {self.base}")
        if not isinstance(self.num_seeds, numbers.Integral):
            raise DataError(f"number of seeds (num_seeds) must be an integer, "
                            f"got {self.num_seeds!r}")
        if self.num_seeds < 1:
            raise DataError(f"number of seeds (num_seeds) must be at least 1, "
                            f"got {self.num_seeds}")
        if not (math.isfinite(self.time_bin) and self.time_bin > 0):
            raise DataError(f"time bin must be finite and positive, got {self.time_bin}")
        if self.cap_exponent is not None and not (
                math.isfinite(self.cap_exponent) and self.cap_exponent > 0):
            raise DataError("seed cap exponent must be finite and positive, "
                            f"got {self.cap_exponent}")


@dataclass
class DetectionResult:
    """Best user block found, its objective, and the per-sink ranking scores."""

    users: tuple[str, ...]
    user_indices: np.ndarray
    objective: float
    sink_scores: np.ndarray
    trace: tuple[tuple[int, float], ...]
    meta: dict = field(default_factory=dict)

    def top_objects(self, graph: BipartiteGraph, n: int | None = None):
        order = np.argsort(-self.sink_scores, kind="stable")
        if n is not None:
            if n < 0:
                raise DataError(f"number of objects must be non-negative, got {n}")
            order = order[:n]
        return [(graph.object_ids[i], float(self.sink_scores[i])) for i in order]


def greedy_shaving(context: SignalContext, seed_idx) -> DetectionResult:
    """Peel minimum-score users off the seed (user indices into
    ``context.graph``) one at a time, returning the prefix of the trajectory
    that maximizes the objective, rescored on the same seed block."""
    graph = context.graph
    state = ContrastState(context, seed_idx)
    best_obj = state.objective()
    best_removals = 0
    trace: list[tuple[int, float]] = [(state.n_active, best_obj)]
    removal_order: list[int] = []
    while state.n_active > 0:
        r = state.argmin_active_score()
        removal_order.append(r)
        state._remove_local(r)
        if state.n_active == 0:
            break
        obj = state.objective()
        trace.append((state.n_active, obj))
        if obj > best_obj:
            best_obj = obj
            best_removals = len(removal_order)

    keep = np.ones(state.seed_idx.size, dtype=bool)
    keep[removal_order[:best_removals]] = False
    state.reset(keep)
    sink_scores = np.zeros(graph.n_objects, dtype=np.float64)
    sink_scores[state.domain] = state.sigma_d * state.cnt_set * state.P
    users_idx = state.seed_idx[keep]
    users = tuple(sorted(graph.user_ids[i] for i in users_idx))
    return DetectionResult(
        users=users, user_indices=users_idx, objective=state.objective(),
        sink_scores=sink_scores, trace=tuple(trace),
        meta={"seed_size": int(state.seed_idx.size), "kappa_rescales": state.n_rescales})


def _above(v: np.ndarray, threshold: float, cap: int) -> np.ndarray:
    """Ascending indices of the entries above ``threshold``; when more than
    ``cap`` are, the ``cap`` largest (ties to the lower index)."""
    idx = np.flatnonzero(v > threshold)
    if idx.size > cap:
        idx = np.sort(idx[np.argsort(-v[idx], kind="stable")[:cap]])
    return idx


def svd_seeds(matrix, num_vectors: int, cap_exponent: float | None = 1 / 1.6,
              tol: float = 0.0, max_iter: int | None = None) -> tuple[list[np.ndarray], dict]:
    """Candidate user sets from the top left singular vectors of a users-by-X matrix.

    Per vector, users are ranked by decreasing component and truncated where
    the component falls to 1/sqrt(n_users) or below; an extra ordering on the
    negated vector is tried when the vector carries mass on both signs. The
    optional cap bounds every seed at n_users^cap_exponent entries. ``tol``
    and ``max_iter`` go to truncated_svd; the defaults are ARPACK's own. If
    ARPACK stops at its iteration cap, the singular vectors that did converge
    are used, with a warning.
    """
    n_users = matrix.shape[0]
    k = min(num_vectors, min(matrix.shape))
    if k < num_vectors:
        logger.warning("rank limits seeds to %d of %d requested vectors", k, num_vectors)
    try:
        U, s = truncated_svd(matrix, k, tol=tol, max_iter=max_iter)
    except ConvergenceError as exc:
        logger.warning("using best-effort singular vectors: %s", exc)
        U, s = exc.best

    threshold = 1.0 / math.sqrt(n_users)
    cap = n_users if cap_exponent is None else max(1, int(n_users ** cap_exponent))
    seeds: list[np.ndarray] = []
    seen: set[bytes] = set()
    sizes: list[int] = []
    for i in range(U.shape[1]):
        vec = U[:, i]
        orderings = [vec]
        if (vec < -threshold).any():
            orderings.append(-vec)
        for v in orderings:
            idx = _above(v, threshold, cap)
            if idx.size == 0:
                continue
            key = idx.tobytes()
            if key in seen:
                continue
            seen.add(key)
            seeds.append(idx)
            sizes.append(int(idx.size))
    return seeds, {"n_vectors": int(U.shape[1]), "seed_sizes": sizes,
                   "singular_values": s.tolist(), "cap": cap}


def matricize(graph: BipartiteGraph, time_bin: float = 86400.0,
              column_weights: np.ndarray | None = None):
    """Flatten events into a users-by-(object, time-bin, rating-cluster) count matrix.

    Ratings cluster into low (0), neutral (1) and high (2) around the scale's
    neutral band. Only observed triples become columns, and scipy's
    ``sum_duplicates`` sums each (user, column) cell's events; each column's entries
    are then scaled in place by its object's suspiciousness weight when
    ``column_weights`` is given. Triples are keyed by one int64, so a time bin
    that cuts the time span into so many bins that n_bins · n_objects ·
    n_clusters exceeds 2^63 is a DataError. Returns the CSR matrix and each
    column's (object, time bin, rating cluster) labels.
    """
    if not graph.has_timestamps:
        raise DataError("matricization requires timestamps")
    if time_bin <= 0:
        raise DataError("time bin must be positive")
    ts, ratings = graph.event_time, graph.event_rating
    n_clusters = 1
    if ratings is not None:
        # 0 below the neutral band, 1 inside it, 2 above it; the clusters in
        # use run up to the top rating's
        low, high = min(graph.scale.neutral), max(graph.scale.neutral)
        top = ratings.max()
        n_clusters += int(top >= low) + int(top > high)

    t0 = int(ts.min())
    span = int(ts.max()) - t0
    last_bin = span / float(time_bin)
    if not last_bin < 2.0 ** 63 or (int(last_bin) + 1) * graph.n_objects * n_clusters > 2 ** 63:
        raise DataError(f"time bin {time_bin:g} s is too fine for the {span} s time span: "
                        f"{last_bin + 1:.3g} bins x {graph.n_objects} objects x "
                        f"{n_clusters} rating clusters do not fit in 64-bit column keys")
    # timestamps are below 2^53, so float64 holds them and their differences exactly
    bins = np.subtract(ts, t0, dtype=np.float64)
    bins /= float(time_bin)
    bins = bins.astype(np.int64)
    n_bins = int(bins.max()) + 1
    # each event's key (object * n_bins + time bin) * n_clusters + cluster,
    # built in place in pair-major order
    col_key = np.repeat(graph.pair_dst * n_bins, graph.pair_count.astype(np.int64))
    col_key += bins
    del bins
    if ratings is not None:
        col_key *= n_clusters
        col_key += ratings >= low
        col_key += ratings > high
    # the distinct keys, ascending, and each event's column: its key's rank
    uniq_cols, col_of_event = unique_inverse(col_key)
    del col_key
    # events run by user: each row lists its events' columns, and scipy sums
    # each (user, column) cell's events
    m = sp.csr_matrix((np.ones(col_of_event.size), col_of_event,
                       graph.pair_event_indptr[graph.src_pair_indptr]),
                      shape=(graph.n_users, uniq_cols.size))
    del col_of_event
    m.sum_duplicates()

    col_objects = uniq_cols // n_clusters // n_bins
    if column_weights is not None:
        m.data *= np.asarray(column_weights, dtype=np.float64)[col_objects][m.indices]
    q, col_clusters = np.divmod(uniq_cols, n_clusters)
    del uniq_cols
    col_bins = q % n_bins
    del q
    labels = {"object": col_objects, "time_bin": col_bins, "rating_cluster": col_clusters}
    return m, labels


def fast_greedy(graph: BipartiteGraph, config: DetectorConfig | None = None) -> DetectionResult:
    """Run greedy shaving from every spectral seed and keep the best block.

    Seeds come from the flattened attribute matrix when the temporal signal is
    active, from the plain weighted adjacency otherwise.
    """
    config = config or DetectorConfig()
    context = SignalContext(graph, config)

    if context.use_phi:
        # the labels are dropped at once: they are as long as the design's columns
        design = matricize(graph, time_bin=config.time_bin, column_weights=context.sigma)[0]
    else:
        design = graph.counts_matrix(column_weights=context.sigma)

    seeds, seed_meta = svd_seeds(design, config.num_seeds,
                                 cap_exponent=config.cap_exponent)
    del design
    if not seeds:
        raise DataError("no usable seeds above the truncation threshold")

    best: DetectionResult | None = None
    n_degenerate = 0
    for i, seed in enumerate(seeds):
        try:
            result = greedy_shaving(context, seed)
        except DataError as exc:
            n_degenerate += 1
            logger.debug("seed %d degenerate: %s", i, exc)
            continue
        if best is None or result.objective > best.objective:
            best = result
    if best is None:
        raise DataError("all seeds degenerate")
    best.meta.update(seed_meta)
    best.meta["n_degenerate_seeds"] = n_degenerate
    best.meta["signals"] = {"alpha": context.use_alpha, "phi": context.use_phi,
                            "kappa": context.use_kappa}
    return best
