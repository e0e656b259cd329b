"""Synthetic benchmark inputs: power-law community backgrounds and labeled
fraud injections with surge timestamps, biased ratings, and camouflage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph, DataError, RatingScale, concat_ranges

DEFAULT_SCALE = RatingScale.from_range(0.5, 5.0, 0.5)
DEFAULT_SPAN = (1_300_000_000, 1_300_000_000 + 2 * 365 * 86400)


@dataclass(frozen=True)
class InjectionConfig:
    """Fraud-contract parameters; block density is ratings_per_object/n_fraudsters."""

    n_fraudsters: int
    n_objects: int = 200
    ratings_per_object: int = 200
    max_target_indegree: int = 100
    camouflage_ratio: float = 0.2
    rating_values: tuple[float, ...] = (4.0, 4.5)
    surge_compression: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.n_fraudsters, self.n_objects, self.ratings_per_object) <= 0:
            raise DataError("injection counts must be positive")
        if self.n_fraudsters < self.ratings_per_object:
            raise DataError("fraud density above 1.0: need n_fraudsters >= ratings_per_object")
        if not (math.isfinite(self.camouflage_ratio) and self.camouflage_ratio >= 0):
            raise DataError("camouflage ratio must be finite and non-negative, "
                            f"got {self.camouflage_ratio}")
        if not (math.isfinite(self.surge_compression) and self.surge_compression > 0):
            raise DataError("surge compression must be finite and positive, "
                            f"got {self.surge_compression}")

    @property
    def density(self) -> float:
        return self.ratings_per_object / self.n_fraudsters


@dataclass(frozen=True)
class GroundTruth:
    fraud_users: frozenset[str]
    fraud_objects: frozenset[str]


def _staircase_envelope(n_rows: int, n_cols: int, exponent: float) -> np.ndarray:
    """Rank power-law row widths n_cols * rank^-exponent: the hyperbolic region
    whose cells the generator fills at the requested density."""
    ranks = np.arange(1, n_rows + 1, dtype=np.float64)
    return np.clip(np.round(n_cols * ranks ** (-exponent)), 1, n_cols).astype(np.int64)


def gen_hyperbolic(n_sources: int, n_sinks: int, power_exponent: float,
                   density_target: float, rng_seed: int,
                   block_shape: tuple[int, int] | None = None,
                   noise_avg_degree: float = 2.0,
                   timestamps: bool = False,
                   ratings: bool = False,
                   scale: RatingScale | None = None) -> tuple[BipartiteGraph, dict]:
    """Background graph containing a hyperbolic (staircase) community block.

    Community rows span a rank power-law envelope over the most popular sinks,
    and each cell under the envelope carries an edge with probability
    density_target, giving the staircase region (dense core shared by the
    whole community tail) that traps plain density maximizers. Uniform noise
    edges cover the rest of the graph. Returns the graph and annotations
    naming the community nodes and the realized region density.
    """
    if min(n_sources, n_sinks) <= 0:
        raise DataError("graph dimensions must be positive")
    if not 0 < density_target <= 1:
        raise DataError("infeasible density: target must lie in (0, 1]")
    br, bc = block_shape if block_shape is not None else (n_sources, n_sinks)
    if min(br, bc) < 1:
        raise DataError("community block must have at least one row and column, "
                        f"got {br}x{bc}")
    if br > n_sources or bc > n_sinks:
        raise DataError("community block exceeds the graph dimensions")
    rng = np.random.default_rng(rng_seed)

    envelope = _staircase_envelope(br, bc, power_exponent)
    area = int(envelope.sum())
    cell_src = np.repeat(np.arange(br, dtype=np.int64), envelope)
    cell_dst = concat_ranges(np.zeros(br, dtype=np.int64), envelope)
    kept = rng.random(area) < density_target
    block_src = cell_src[kept]
    block_dst = cell_dst[kept]
    realized = float(kept.sum()) / area
    if area >= 100 and abs(realized - density_target) > 0.10 * density_target:
        raise DataError(
            f"infeasible density: realized {realized:.3f} vs target {density_target:.3f}")

    n_noise = int(round(noise_avg_degree * n_sources))
    noise_src = rng.integers(0, n_sources, n_noise)
    noise_dst = rng.integers(0, n_sinks, n_noise)

    us = np.concatenate((block_src, noise_src))
    vs = np.concatenate((block_dst, noise_dst))

    times = None
    if timestamps:
        times = rng.integers(DEFAULT_SPAN[0], DEFAULT_SPAN[1], us.size)
    rats = None
    if ratings:
        scale = scale or DEFAULT_SCALE
        values = np.asarray(scale.values)
        # each object has an organic consensus score; raters wobble one notch
        consensus = rng.integers(0, len(values), n_sinks)
        wobble = rng.integers(-1, 2, us.size)
        rats = values[np.clip(consensus[vs] + wobble, 0, len(values) - 1)]

    width = len(str(max(n_sources, n_sinks)))
    user_ids = [f"u{i:0{width}d}" for i in range(n_sources)]
    object_ids = [f"o{j:0{width}d}" for j in range(n_sinks)]
    graph = BipartiteGraph(user_ids, object_ids, us, vs, times, rats,
                           scale=scale if ratings else None)
    annotations = {
        "community_users": user_ids[:br],
        "community_objects": object_ids[:bc],
        "block_shape": (br, bc),
        "block_density": realized,
        "block_area": area,
        "block_edges": int(kept.sum()),
    }
    return graph, annotations


def inject(graph: BipartiteGraph, cfg: InjectionConfig) -> tuple[BipartiteGraph, GroundTruth]:
    """Plant a fraud contract into an existing graph.

    Targets are sampled from low-indegree objects and each receives exactly
    ratings_per_object events from distinct hijacked accounts, timed as a
    surge (one start per target plus compressed empirical inter-arrivals) and
    rated from the configured high-score set. Camouflage edges go from the
    fraudsters to popular non-target objects. Returns the augmented graph and
    the ground-truth labels.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    indeg = graph.sink_event_counts()
    eligible = np.flatnonzero(indeg <= cfg.max_target_indegree)
    if eligible.size < cfg.n_objects:
        raise DataError(
            f"too few eligible targets: {eligible.size} objects have indegree "
            f"<= {cfg.max_target_indegree}, need {cfg.n_objects}")
    if cfg.n_fraudsters > graph.n_users:
        raise DataError(
            f"cannot hijack {cfg.n_fraudsters} accounts from {graph.n_users} users")
    if graph.has_ratings:
        missing = [v for v in cfg.rating_values if v not in graph.scale]
        if missing:
            raise DataError(f"fraud rating values {missing} are not on the scale")

    targets = np.sort(rng.choice(eligible, size=cfg.n_objects, replace=False))
    fraudsters = np.sort(rng.choice(graph.n_users, size=cfg.n_fraudsters, replace=False))

    rpo = cfg.ratings_per_object
    fraud_src = np.empty(cfg.n_objects * rpo, dtype=np.int64)
    fraud_dst = np.repeat(targets, rpo)
    for t in range(cfg.n_objects):
        fraud_src[t * rpo:(t + 1) * rpo] = rng.choice(fraudsters, size=rpo, replace=False)

    n_camo = int(round(cfg.camouflage_ratio * cfg.n_objects * rpo))
    camo_src = camo_dst = None
    if n_camo > 0:
        camo_src = rng.choice(fraudsters, size=n_camo, replace=True)
        weights = indeg.copy()
        weights[targets] = 0.0
        wsum = weights.sum()
        if wsum > 0:
            camo_dst = rng.choice(graph.n_objects, size=n_camo, p=weights / wsum)
        else:
            non_targets = np.setdiff1d(np.arange(graph.n_objects), targets)
            if non_targets.size == 0:
                raise DataError("no non-target objects available for camouflage")
            camo_dst = rng.choice(non_targets, size=n_camo)

    new_src = [fraud_src]
    new_dst = [fraud_dst]
    if camo_src is not None:
        new_src.append(camo_src)
        new_dst.append(camo_dst)
    add_src = np.concatenate(new_src)
    add_dst = np.concatenate(new_dst)

    add_times = None
    if graph.has_timestamps:
        all_times = np.sort(graph.sink_event_time)
        gaps = np.diff(all_times).astype(np.float64)
        if gaps.size == 0:
            gaps = np.array([1.0])
        tmin, tmax = int(all_times[0]), int(all_times[-1])
        fraud_times = np.empty(fraud_src.size, dtype=np.int64)
        for t in range(cfg.n_objects):
            start = rng.integers(tmin, max(tmax, tmin + 1))
            intervals = rng.choice(gaps, size=rpo) * cfg.surge_compression
            fraud_times[t * rpo:(t + 1) * rpo] = start + np.round(
                np.cumsum(intervals)).astype(np.int64)
        parts = [fraud_times]
        if camo_src is not None:
            parts.append(rng.integers(tmin, max(tmax, tmin + 1), n_camo))
        add_times = np.concatenate(parts)

    add_ratings = None
    if graph.has_ratings:
        values = np.asarray(cfg.rating_values, dtype=np.float64)
        fraud_ratings = rng.choice(values, size=fraud_src.size)
        parts = [fraud_ratings]
        if camo_src is not None:
            parts.append(rng.choice(np.asarray(graph.scale.values), size=n_camo))
        add_ratings = np.concatenate(parts)

    us, vs, ts, rats = graph.event_arrays()
    all_src = np.concatenate((us, add_src))
    all_dst = np.concatenate((vs, add_dst))
    all_times = np.concatenate((ts, add_times)) if graph.has_timestamps else None
    all_ratings = np.concatenate((rats, add_ratings)) if graph.has_ratings else None

    out = BipartiteGraph(graph.user_ids, graph.object_ids, all_src, all_dst,
                         all_times, all_ratings, scale=graph.scale)
    truth = GroundTruth(
        frozenset(graph.user_ids[i] for i in fraudsters),
        frozenset(graph.object_ids[j] for j in targets))
    return out, truth


def write_labels(truth: GroundTruth, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(truth.fraud_users):
            fh.write(f"{uid},user\n")
        for oid in sorted(truth.fraud_objects):
            fh.write(f"{oid},object\n")


def read_labels(path: str | Path) -> GroundTruth:
    users: list[str] = []
    objects: list[str] = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise DataError(f"labels line {lineno}: not valid UTF-8") from None
        if not line:
            continue
        try:
            node, side = line.split(",")
        except ValueError:
            raise DataError(f"labels line {lineno}: expected 'id,side'") from None
        if side == "user":
            users.append(node)
        elif side == "object":
            objects.append(node)
        else:
            raise DataError(f"labels line {lineno}: unknown side {side!r}")
    return GroundTruth(frozenset(users), frozenset(objects))


def bench_graph(target_edges: int, seed: int) -> tuple[BipartiteGraph, GroundTruth]:
    """Self-scaling synthetic workload for runtime benchmarking: hyperbolic
    background plus a density-0.2 injection, sized to roughly target_edges."""
    n_src = max(400, target_edges // 8)
    n_snk = max(200, n_src // 2)
    # hyperbolic region area ~ side^1.6 / 0.6 at exponent 0.4; fill it at 0.5
    # so the community carries ~35% of the requested edge volume
    side = int((0.42 * target_edges) ** (1 / 1.6))
    br = min(side, int(n_src * 0.8))
    bc = min(side, int(n_snk * 0.8))
    n_obj = int(np.clip(round(target_edges / 5000), 10, 200))
    rpo = n_obj
    noise_deg = max(0.5, 0.45 * target_edges / n_src)

    ss = np.random.SeedSequence(seed)
    s_bg, s_inj = ss.spawn(2)
    base, _ = gen_hyperbolic(
        n_src, n_snk, power_exponent=0.4, density_target=0.5,
        rng_seed=int(s_bg.generate_state(1)[0]), block_shape=(br, bc),
        noise_avg_degree=noise_deg, timestamps=True, ratings=True)
    cfg = InjectionConfig(
        n_fraudsters=5 * rpo, n_objects=n_obj, ratings_per_object=rpo,
        max_target_indegree=max(100, int(2 * noise_deg * n_src / n_snk) + 10),
        rng_seed=int(s_inj.generate_state(1)[0]))
    return inject(base, cfg)
