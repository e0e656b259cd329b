"""Fraud-block detection on bipartite rating graphs.

Scores every object by how exclusively, how burstily, and how deviantly a
tracked user set engages with it, then greedily shaves spectral seed sets to
the block maximizing the expected-density objective.
"""

from .contrast import SignalContext
from .detector import DetectionResult, DetectorConfig, fast_greedy, greedy_shaving
from .evalkit import AccuracyCurve, SweepResult, density_sweep, f_measure
from .graph import (BipartiteGraph, DataError, RatingScale, ingest, read_delimited,
                    write_delimited)
from .synth import (GroundTruth, InjectionConfig, bench_graph, gen_hyperbolic,
                    inject, read_labels, write_labels)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCurve", "BipartiteGraph", "DataError", "DetectionResult",
    "DetectorConfig", "GroundTruth", "InjectionConfig", "RatingScale",
    "SignalContext", "SweepResult", "bench_graph", "density_sweep", "f_measure",
    "fast_greedy", "gen_hyperbolic", "greedy_shaving", "ingest", "inject",
    "read_delimited", "read_labels", "write_delimited", "write_labels",
]
