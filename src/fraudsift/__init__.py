"""Fraud-block detection on bipartite rating graphs.

Scores every object by how exclusively, how burstily, and how deviantly a
tracked user set engages with it, then greedily shaves spectral seed sets to
the block maximizing the expected-density objective.
"""

from .contrast import (ContrastState, SignalConfig, SignalContext,
                       contrast_score, involvement_ratio, rating_divergence,
                       suspicion_scale)
from .detector import (DetectionResult, DetectorConfig, fast_greedy,
                       greedy_shaving, matricize, resolve_signals, svd_seeds)
from .evalkit import (AccuracyCurve, SweepResult, avg_degree_baseline,
                      density_sweep, f_measure, roc_auc)
from .graph import (BipartiteGraph, DataError, EdgeRecord, RatingScale,
                    ingest, read_delimited, write_delimited)
from .spectral import ConvergenceError, truncated_svd
from .synth import (GroundTruth, InjectionConfig, bench_graph, gen_hyperbolic,
                    inject, read_labels, write_labels)
from .temporal import (BurstPair, DropInfo, SpikeProfile, TimeSeriesHist,
                       awakening_point, build_histogram, build_profile,
                       drop_edge_weight, extreme_slopes, max_drop, multiburst,
                       phi_involvement, simulate_triangle_attack,
                       time_obstruction_bound)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCurve", "BipartiteGraph", "BurstPair", "ContrastState",
    "ConvergenceError", "DataError", "DetectionResult", "DetectorConfig",
    "DropInfo", "EdgeRecord", "GroundTruth", "InjectionConfig", "RatingScale",
    "SignalConfig", "SignalContext", "SpikeProfile", "SweepResult",
    "TimeSeriesHist",
    "avg_degree_baseline", "awakening_point", "bench_graph", "build_histogram",
    "build_profile", "contrast_score", "density_sweep", "drop_edge_weight",
    "extreme_slopes", "f_measure", "fast_greedy", "gen_hyperbolic",
    "greedy_shaving", "ingest", "inject", "involvement_ratio", "matricize",
    "max_drop", "multiburst", "phi_involvement", "rating_divergence",
    "read_delimited", "read_labels", "resolve_signals", "roc_auc",
    "simulate_triangle_attack", "suspicion_scale", "svd_seeds",
    "time_obstruction_bound", "truncated_svd", "write_delimited",
    "write_labels",
]
