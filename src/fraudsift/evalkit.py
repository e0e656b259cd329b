"""Scoring detections against ground truth: set F-measure, rank AUC for scored
sinks, accuracy-vs-density curves, and an average-degree peeling baseline."""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

from .detector import DetectorConfig, fast_greedy
from .graph import BipartiteGraph, DataError
from .synth import GroundTruth, InjectionConfig, inject

logger = logging.getLogger(__name__)


def f_measure(predicted: Iterable, truth: Iterable) -> tuple[float, float, float]:
    """(precision, recall, F1) on set overlap; empty predictions score zero."""
    pred = set(predicted)
    gold = set(truth)
    if not gold:
        raise DataError("ground truth must be non-empty")
    if not pred:
        return 0.0, 0.0, 0.0
    hit = len(pred & gold)
    precision = hit / len(pred)
    recall = hit / len(gold)
    if hit == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def roc_auc(scores: Mapping, truth: Iterable) -> float:
    """Rank-based AUC (Mann-Whitney, ties averaged) of scored items against a
    positive set; requires both classes present."""
    items = list(scores.keys())
    positive = set(truth)
    values = np.asarray([scores[i] for i in items], dtype=np.float64)
    labels = np.asarray([i in positive for i in items], dtype=bool)
    return roc_auc_from_arrays(values, labels)


def roc_auc_from_arrays(values: np.ndarray, positive: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative item")
    ranks = rankdata(values)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@dataclass(frozen=True)
class AccuracyCurve:
    """Accuracy as a function of injected density, with its area.

    The area is a trapezoid over the recorded grid with a (0, 0) point
    prepended, so a perfect detector over densities [0.01, 1.0] scores 0.995.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ds = [d for d, _ in self.points]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise DataError("curve densities must be strictly increasing")
        if any(not 0.0 <= a <= 1.0 for _, a in self.points):
            raise DataError("curve accuracies must lie in [0, 1]")

    @property
    def area(self) -> float:
        xs = np.concatenate(([0.0], [d for d, _ in self.points]))
        ys = np.concatenate(([0.0], [a for _, a in self.points]))
        return float((0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)).sum())

    def lowest_detection_density(self, threshold: float = 0.9) -> float | None:
        """Smallest density sustaining accuracy >= threshold, or None."""
        good = [d for d, a in self.points if a >= threshold]
        return min(good) if good else None


@dataclass
class SweepPoint:
    density: float
    n_fraudsters: int
    user_f1: float | None = None
    sink_auc: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    points: list[SweepPoint]
    users_curve: AccuracyCurve
    sinks_curve: AccuracyCurve

    def summary(self) -> dict:
        return {
            "users_auc": self.users_curve.area if self.users_curve.points else 0.0,
            "sinks_auc": self.sinks_curve.area if self.sinks_curve.points else 0.0,
            "lowest_detection_density_users": self.users_curve.lowest_detection_density(),
            "lowest_detection_density_sinks": self.sinks_curve.lowest_detection_density(),
            "points": [
                {"density": p.density, "n_fraudsters": p.n_fraudsters,
                 "user_f1": p.user_f1, "sink_auc": p.sink_auc, "error": p.error}
                for p in self.points],
        }


Detector = Callable[[BipartiteGraph, GroundTruth], tuple[Iterable[str], np.ndarray]]


def density_sweep(base: BipartiteGraph, densities: Sequence[float],
                  config: DetectorConfig | None = None,
                  inject_proto: InjectionConfig | None = None,
                  seed: int = 0,
                  detector: Detector | None = None) -> SweepResult:
    """Inject at each density, detect, and record user F1 and sink AUC.

    A failing point is recorded with its error and the sweep continues. The
    detector hook exists for baselines and stubs; it must return (user ids,
    per-sink score array).
    """
    densities = sorted(set(float(d) for d in densities))
    if not densities:
        raise DataError("density grid is empty")
    if any(not 0 < d <= 1 for d in densities):
        raise DataError("densities must lie in (0, 1]")
    config = config or DetectorConfig()
    rpo = inject_proto.ratings_per_object if inject_proto else 200

    if detector is None:
        def detector(g: BipartiteGraph, truth: GroundTruth):
            result = fast_greedy(g, config)
            return result.users, result.sink_scores

    children = np.random.SeedSequence(seed).spawn(len(densities))
    points: list[SweepPoint] = []
    for d, child in zip(densities, children):
        nf = int(round(rpo / d))
        point = SweepPoint(density=d, n_fraudsters=nf)
        try:
            proto = inject_proto or InjectionConfig(n_fraudsters=nf)
            cfg = replace(proto, n_fraudsters=nf,
                          rng_seed=int(child.generate_state(1)[0]))
            injected, truth = inject(base, cfg)
            users, sink_scores = detector(injected, truth)
            point.user_f1 = f_measure(users, truth.fraud_users)[2]
            positive = np.zeros(injected.n_objects, dtype=bool)
            positive[[injected.object_index(o) for o in truth.fraud_objects]] = True
            point.sink_auc = roc_auc_from_arrays(np.asarray(sink_scores), positive)
        except Exception as exc:  # keep sweeping; the point is reported absent
            point.error = f"{type(exc).__name__}: {exc}"
            logger.warning("sweep point density=%.4g failed: %s", d, point.error)
        points.append(point)

    users_curve = AccuracyCurve(tuple(
        (p.density, p.user_f1) for p in points if p.user_f1 is not None))
    sinks_curve = AccuracyCurve(tuple(
        (p.density, p.sink_auc) for p in points if p.sink_auc is not None))
    return SweepResult(points, users_curve, sinks_curve)


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
