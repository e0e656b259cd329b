"""The benchmark's three workloads: inputs made from a seed, the timed
section, and the checks on its outputs.

Each workload drives fraudsift through its public library API only.
``setup`` builds the inputs (timed as set-up, never as the section),
``run`` is the timed section, and ``check`` scores one run of it. Why each
workload exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

import fraudsift as fs
from fraudsift import DetectorConfig, InjectionConfig
from fraudsift.evalkit import AccuracyCurve, roc_auc_from_arrays

# Acceptance-suite floors: criterion 1 (topology-only recovery next to a
# dense hyperbolic community) and criterion 2 (full-signal density sweep).
TOPOLOGY_F1_FLOOR = 0.9
SWEEP_F1_FLOOR = 0.8
SWEEP_F1_MIN_DENSITY = 0.1
SWEEP_AUC_FLOOR = 0.95
SWEEP_DENSITIES = (1.0, 0.5, 0.2, 0.1, 0.05)


@dataclass
class Attempt:
    """One detection the benchmark checked: a detect call or a sweep point."""

    valid: bool  # the output itself is well formed (objective, seed subset)
    floor_met: bool  # the quality floor, where the workload has one
    digest: str = ""
    reason: str = ""

    @property
    def failed(self) -> bool:
        return not (self.valid and self.floor_met)


@dataclass
class Checked:
    """The checks on one run of the timed section."""

    attempts: list[Attempt]
    user_f1: float
    sink_auc: float
    layer: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(a.digest for a in self.attempts).encode()).hexdigest()


def validate(detection) -> str:
    """Empty when the detection is well formed, else why it is not."""
    result = detection.result
    if not (math.isfinite(result.objective) and result.objective > 0):
        return f"objective {result.objective!r} is not finite and positive"
    users = set(result.user_indices.tolist())
    if not users:
        return "empty user block"
    if not any(users <= set(s.tolist()) for s in detection.seeds):
        return "detected users are not a subset of any seed"
    return ""


def sink_positive(graph, fraud_objects) -> np.ndarray:
    positive = np.zeros(graph.n_objects, dtype=bool)
    positive[[graph.object_index(o) for o in fraud_objects]] = True
    return positive


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class SetupTimer:
    """Set-up sub-stage timings, kept per name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return out


class CsvDetect:
    """Timed section: read_delimited -> fast_greedy -> top_objects (full ranking)."""

    config: DetectorConfig
    f1_floor: float | None = None

    def __init__(self, size: str, seed: int, workdir):
        self.size = size
        self.seed = seed
        self.path = workdir / f"{self.name}.csv"
        self.truth = None

    def generate(self):
        raise NotImplementedError

    def setup(self, timer: SetupTimer) -> None:
        graph, self.truth = timer("synth.generate_s", self.generate)
        timer("synth.write_csv_s", fs.write_delimited, graph, self.path)

    def run(self, probe):
        rejected: list[str] = []
        with probe.span("graph.read"):
            graph = fs.read_delimited(self.path, diagnostics=rejected)
        probe.counts["graph.events"] += graph.n_events
        probe.counts["graph.rejected_lines"] += len(rejected)
        result = probe.fast_greedy(graph, self.config)
        with probe.span("output.rank"):
            result.top_objects(graph)
        return graph.n_events, (graph, result)

    def check(self, outcome, probe) -> Checked:
        graph, result = outcome
        (detection,) = probe.detections
        reason = validate(detection)
        valid = not reason
        f1 = fs.f_measure(result.users, self.truth.fraud_users)[2]
        auc = roc_auc_from_arrays(result.sink_scores,
                                  sink_positive(graph, self.truth.fraud_objects))
        floor_met = self.f1_floor is None or f1 >= self.f1_floor
        if not floor_met:
            reason = reason or f"user F1 {f1:.3f} below {self.f1_floor}"
        attempt = Attempt(valid, floor_met, detection.digest, reason)
        return Checked([attempt], f1, auc)


class DetectCsv1m(CsvDetect):
    """ROADMAP's end-to-end unit: all signals on a ~1M-event bench_graph."""

    name = "detect_csv_1m"
    config = DetectorConfig()
    EDGES = {"full": 1_000_000, "smoke": 20_000}

    def generate(self):
        return fs.bench_graph(self.EDGES[self.size], seed=self.seed)


class TopologyUncapped(CsvDetect):
    """Criterion 1's hyperbolic trap at twice the scale, topology only, uncapped."""

    name = "topology_uncapped"
    config = DetectorConfig(signals=("alpha",), cap_exponent=None)
    f1_floor = TOPOLOGY_F1_FLOOR
    # (nodes per side, community side, fraudsters, target objects)
    SHAPE = {"full": (10_000, 2000, 600, 300), "smoke": (2000, 400, 120, 60)}

    def generate(self):
        n, side, n_fraud, n_targets = self.SHAPE[self.size]
        bg_seed, inj_seed = _child_seeds(self.seed, 2)
        base, _ = fs.gen_hyperbolic(
            n, n, power_exponent=0.4, density_target=0.84, rng_seed=bg_seed,
            block_shape=(side, side), noise_avg_degree=2.0)
        cfg = InjectionConfig(
            n_fraudsters=n_fraud, n_objects=n_targets,
            ratings_per_object=int(round(0.6 * n_fraud)), max_target_indegree=100,
            camouflage_ratio=0.2, rng_seed=inj_seed)
        return fs.inject(base, cfg)


class DensitySweep:
    """Criterion 2's sweep: inject at each density, detect, score; in memory."""

    name = "density_sweep"
    config = DetectorConfig(cap_exponent=None)
    # (users, objects, community rows, community cols, contract objects and ratings)
    SHAPE = {"full": (10_000, 5000, 2000, 1200, 200), "smoke": (2000, 1000, 400, 240, 40)}

    def __init__(self, size: str, seed: int, workdir):
        self.size = size
        self.seed = seed
        self.base = None

    def setup(self, timer: SetupTimer) -> None:
        n_users, n_objects, rows, cols, contract = self.SHAPE[self.size]
        bg_seed, self.sweep_seed = _child_seeds(self.seed, 2)
        self.base, _ = timer(
            "synth.generate_s", fs.gen_hyperbolic, n_users, n_objects,
            power_exponent=0.5, density_target=0.6, rng_seed=bg_seed,
            block_shape=(rows, cols), noise_avg_degree=6.0,
            timestamps=True, ratings=True)
        self.proto = InjectionConfig(n_fraudsters=contract, n_objects=contract,
                                     ratings_per_object=contract, camouflage_ratio=0.2)

    def run(self, probe):
        with probe.span("evalkit.sweep"):
            sweep = fs.density_sweep(self.base, SWEEP_DENSITIES, self.config,
                                     inject_proto=self.proto, seed=self.sweep_seed)
        return probe.injected_events, sweep

    def check(self, sweep, probe) -> Checked:
        detections = iter(probe.detections)
        attempts = []
        for point in sweep.points:
            if point.error:
                attempts.append(Attempt(True, False, reason=point.error))
                continue
            detection = next(detections)
            reason = validate(detection)
            valid = not reason
            floor_met = point.sink_auc >= SWEEP_AUC_FLOOR and (
                point.density < SWEEP_F1_MIN_DENSITY or point.user_f1 >= SWEEP_F1_FLOOR)
            if not floor_met:
                reason = reason or (f"density {point.density}: user F1 {point.user_f1:.3f}, "
                                    f"sink AUC {point.sink_auc:.3f} below the floor")
            attempts.append(Attempt(valid, floor_met, detection.digest, reason))
        perfect = AccuracyCurve(tuple((d, 1.0) for d in sorted(SWEEP_DENSITIES))).area
        users_area = sweep.users_curve.area if sweep.users_curve.points else 0.0
        sinks_area = sweep.sinks_curve.area if sweep.sinks_curve.points else 0.0
        return Checked(attempts, users_area / perfect, sinks_area / perfect,
                       {"evalkit.points": len(sweep.points),
                        "evalkit.users_curve_auc": users_area,
                        "evalkit.sinks_curve_auc": sinks_area})


WORKLOADS = {w.name: w for w in (DetectCsv1m, TopologyUncapped, DensitySweep)}
