"""Fraud-block detection on bipartite rating graphs.

Scores every object by how exclusively, how burstily, and how deviantly a
tracked user set engages with it, then greedily shaves spectral seed sets to
the block maximizing the expected-density objective.
"""

from .contrast import ContrastState, SignalContext, contrast_score
from .detector import (DetectionResult, DetectorConfig, fast_greedy,
                       greedy_shaving, matricize, svd_seeds)
from .evalkit import (AccuracyCurve, SweepResult, avg_degree_baseline,
                      density_sweep, f_measure, roc_auc)
from .graph import (BipartiteGraph, DataError, EdgeRecord, RatingScale,
                    ingest, read_delimited, write_delimited)
from .spectral import ConvergenceError, truncated_svd
from .synth import (GroundTruth, InjectionConfig, bench_graph, gen_hyperbolic,
                    inject, read_labels, write_labels)
from .temporal import (extreme_slopes, simulate_triangle_attack,
                       time_obstruction_bound)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCurve", "BipartiteGraph", "ContrastState", "ConvergenceError",
    "DataError", "DetectionResult", "DetectorConfig", "EdgeRecord", "GroundTruth",
    "InjectionConfig", "RatingScale", "SignalContext", "SweepResult",
    "avg_degree_baseline", "bench_graph", "contrast_score", "density_sweep",
    "extreme_slopes", "f_measure", "fast_greedy", "gen_hyperbolic", "greedy_shaving",
    "ingest", "inject", "matricize", "read_delimited", "read_labels", "roc_auc",
    "simulate_triangle_attack", "svd_seeds", "time_obstruction_bound",
    "truncated_svd", "write_delimited", "write_labels",
]
