"""Scoring detections against ground truth: set F-measure, rank AUC of the
sink scores, and accuracy-vs-density curves from density sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import rankdata

from .detector import DetectorConfig, fast_greedy
from .graph import BipartiteGraph, DataError
from .synth import InjectionConfig, inject

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


def roc_auc_from_arrays(values: np.ndarray, positive: np.ndarray) -> float:
    """Rank-based AUC (Mann-Whitney, ties averaged) of ``values`` against the
    boolean mask ``positive``; requires both classes present."""
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


def density_sweep(base: BipartiteGraph, densities: Sequence[float],
                  config: DetectorConfig | None = None,
                  inject_proto: InjectionConfig | None = None,
                  seed: int = 0) -> SweepResult:
    """Inject at each density, run fast_greedy, and record user F1 and sink AUC.

    A failing point is recorded with its error and the sweep continues.
    """
    densities = sorted(set(float(d) for d in densities))
    if not densities:
        raise DataError("density grid is empty")
    if any(not 0 < d <= 1 for d in densities):
        raise DataError("densities must lie in (0, 1]")
    config = config or DetectorConfig()
    rpo = inject_proto.ratings_per_object if inject_proto else 200

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
            result = fast_greedy(injected, config)
            point.user_f1 = f_measure(result.users, truth.fraud_users)[2]
            positive = np.zeros(injected.n_objects, dtype=bool)
            positive[[injected.object_index(o) for o in truth.fraud_objects]] = True
            point.sink_auc = roc_auc_from_arrays(result.sink_scores, positive)
        except Exception as exc:  # keep sweeping; the point is reported absent
            point.error = f"{type(exc).__name__}: {exc}"
            logger.warning("sweep point density=%.4g failed: %s", d, point.error)
        points.append(point)

    users_curve = AccuracyCurve(tuple(
        (p.density, p.user_f1) for p in points if p.user_f1 is not None))
    sinks_curve = AccuracyCurve(tuple(
        (p.density, p.sink_auc) for p in points if p.sink_auc is not None))
    return SweepResult(points, users_curve, sinks_curve)
