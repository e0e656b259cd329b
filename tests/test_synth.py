from __future__ import annotations

import numpy as np
import pytest

from fraudsift import (DataError, GroundTruth, InjectionConfig, RatingScale,
                       gen_hyperbolic, inject, read_labels, write_labels)
from oracles import build_profile, pair_events, pairs_of_sink


def small_base(seed=0, **kwargs):
    defaults = dict(n_sources=800, n_sinks=500, power_exponent=0.5,
                    density_target=0.6, rng_seed=seed, block_shape=(150, 100),
                    noise_avg_degree=2.0, timestamps=True, ratings=True)
    defaults.update(kwargs)
    return gen_hyperbolic(**defaults)


def graph_fingerprint(g):
    us, vs, ts, rats = g.event_arrays()
    return (us.tolist(), vs.tolist(),
            None if ts is None else ts.tolist(),
            None if rats is None else rats.tolist())


def test_generator_is_bit_reproducible():
    g1, a1 = small_base(seed=123)
    g2, a2 = small_base(seed=123)
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    assert a1["block_density"] == a2["block_density"]
    g3, _ = small_base(seed=124)
    assert graph_fingerprint(g1) != graph_fingerprint(g3)


def test_generator_hits_density_target():
    _, ann = small_base(seed=5)
    assert ann["block_density"] == pytest.approx(0.6, rel=0.10)
    assert ann["block_edges"] <= ann["block_area"]


def test_generator_zero_exponent_is_uniform_block():
    g, ann = gen_hyperbolic(100, 80, power_exponent=0.0, density_target=0.5,
                            rng_seed=1, block_shape=(40, 30))
    # flat envelope: every community row spans the full block width
    assert ann["block_area"] == 40 * 30
    counts = g.counts_matrix().toarray()[:40, :30]
    degrees = counts.sum(axis=1)
    assert degrees.std() < degrees.mean() * 0.35


def test_generator_degree_sequence_follows_rank_power_law():
    exponent = 0.8
    g, _ = gen_hyperbolic(500, 400, power_exponent=exponent, density_target=0.9,
                          rng_seed=7, block_shape=(500, 400), noise_avg_degree=0.0)
    counts = g.counts_matrix().toarray()
    degrees = counts.sum(axis=1)
    ranks = np.arange(1, 501)
    use = degrees >= 5
    slope = np.polyfit(np.log(ranks[use]), np.log(degrees[use]), 1)[0]
    assert slope == pytest.approx(-exponent, abs=0.1)


def test_generator_rejects_bad_density():
    with pytest.raises(DataError, match="infeasible density"):
        gen_hyperbolic(100, 100, 1.0, 1.5, rng_seed=0)
    with pytest.raises(DataError, match="infeasible density"):
        gen_hyperbolic(100, 100, 1.0, 0.0, rng_seed=0)


def test_injection_density_formula_and_conservation():
    base, _ = small_base(seed=11)
    cfg = InjectionConfig(n_fraudsters=400, n_objects=50, ratings_per_object=40,
                          camouflage_ratio=0.2, rng_seed=3)
    assert cfg.density == pytest.approx(0.1)
    g, truth = inject(base, cfg)
    n_fraud = 50 * 40
    n_camo = round(0.2 * n_fraud)
    assert g.n_events - base.n_events == n_fraud + n_camo
    assert len(truth.fraud_users) == 400
    assert len(truth.fraud_objects) == 50
    # each target gets exactly ratings_per_object distinct raters: the realized
    # block density equals the contract density exactly (well within 2%)
    tidx = {g.object_index(o) for o in truth.fraud_objects}
    fidx = {g.user_ids.index(u) for u in truth.fraud_users}
    pairs = 0
    for p in range(g.n_pairs):
        if int(g.pair_dst[p]) in tidx and int(g.pair_src[p]) in fidx:
            pairs += 1
    base_pairs = sum(1 for p in range(base.n_pairs)
                     if int(base.pair_dst[p]) in tidx and int(base.pair_src[p]) in fidx)
    realized = (pairs - base_pairs) / (400 * 50)
    assert realized == pytest.approx(cfg.density, rel=0.02)


def test_injection_unit_density_means_every_fraudster_hits_every_target():
    base, _ = small_base(seed=13)
    cfg = InjectionConfig(n_fraudsters=30, n_objects=10, ratings_per_object=30,
                          camouflage_ratio=0.0, rng_seed=5)
    assert cfg.density == 1.0
    g, truth = inject(base, cfg)
    fidx = sorted(g.user_ids.index(u) for u in truth.fraud_users)
    for o in truth.fraud_objects:
        vi = g.object_index(o)
        raters = set()
        for p in pairs_of_sink(g, vi):
            if int(g.pair_src[p]) in fidx:
                raters.add(int(g.pair_src[p]))
        assert len(raters) == 30


def test_injection_is_reproducible():
    base, _ = small_base(seed=17)
    cfg = InjectionConfig(n_fraudsters=100, n_objects=20, ratings_per_object=25,
                          rng_seed=99)
    g1, t1 = inject(base, cfg)
    g2, t2 = inject(base, cfg)
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    assert t1 == t2


def test_injection_ratings_come_from_configured_values():
    from collections import Counter

    base, _ = small_base(seed=19)
    cfg = InjectionConfig(n_fraudsters=60, n_objects=10, ratings_per_object=20,
                          camouflage_ratio=0.0, rng_seed=1)
    g, truth = inject(base, cfg)

    def sink_ratings(graph, vi):
        out = []
        for p in pairs_of_sink(graph, vi):
            out.extend(graph.event_rating[pair_events(graph, p)].tolist())
        return Counter(out)

    for o in truth.fraud_objects:
        added = sink_ratings(g, g.object_index(o)) - sink_ratings(base, base.object_index(o))
        assert sum(added.values()) == 20
        assert set(added) <= {4.0, 4.5}


def test_injection_rejects_offscale_rating_values():
    base, _ = small_base(seed=23, scale=RatingScale.from_range(1, 5, 1))
    cfg = InjectionConfig(n_fraudsters=50, n_objects=10, ratings_per_object=20,
                          rating_values=(4.0, 4.5), rng_seed=0)
    with pytest.raises(DataError, match="not on the scale"):
        inject(base, cfg)


def test_injection_shortfall_error_lists_counts():
    base, _ = small_base(seed=29)
    cfg = InjectionConfig(n_fraudsters=100, n_objects=450, ratings_per_object=100,
                          max_target_indegree=3, rng_seed=0)
    with pytest.raises(DataError, match="too few eligible targets"):
        inject(base, cfg)


def test_injection_density_above_one_rejected():
    with pytest.raises(DataError, match="density above 1.0"):
        InjectionConfig(n_fraudsters=10, n_objects=5, ratings_per_object=20)


@pytest.mark.parametrize("field, value", [
    ("camouflage_ratio", float("nan")), ("camouflage_ratio", float("inf")),
    ("camouflage_ratio", -0.1), ("surge_compression", float("nan")),
    ("surge_compression", float("inf")), ("surge_compression", 0.0),
    ("surge_compression", -1.0)])
def test_injection_config_rejects_non_finite_or_out_of_range(field, value):
    # a nan compression would turn every fraud timestamp into int64's minimum
    with pytest.raises(DataError, match=field.replace("_", " ")):
        InjectionConfig(n_fraudsters=10, n_objects=5, ratings_per_object=5,
                        **{field: value})


def test_hyperbolic_block_side_below_one_rejected():
    for shape in [(0, 5), (5, 0)]:
        with pytest.raises(DataError, match="at least one row and column"):
            gen_hyperbolic(20, 10, power_exponent=0.5, density_target=0.5,
                           rng_seed=0, block_shape=shape)


def test_camouflage_prefers_popular_objects():
    base, ann = small_base(seed=31)
    cfg = InjectionConfig(n_fraudsters=200, n_objects=30, ratings_per_object=40,
                          camouflage_ratio=0.5, rng_seed=8)
    g, truth = inject(base, cfg)
    tidx = {g.object_index(o) for o in truth.fraud_objects}
    fidx = {g.user_ids.index(u) for u in truth.fraud_users}
    before = base.sink_event_counts()
    camo_weight = {}
    for p in range(g.n_pairs):
        v = int(g.pair_dst[p])
        if v not in tidx and int(g.pair_src[p]) in fidx:
            camo_weight[v] = camo_weight.get(v, 0) + 1
    got = np.asarray(sorted(camo_weight))
    # camouflaged objects skew heavily toward the popular community columns
    pop_median = np.median(before[got])
    all_median = np.median(before)
    assert pop_median > all_median


def test_injected_targets_surge_above_background_slopes():
    base, _ = small_base(seed=37)
    cfg = InjectionConfig(n_fraudsters=300, n_objects=40, ratings_per_object=60,
                          camouflage_ratio=0.0, rng_seed=2)
    g, truth = inject(base, cfg)
    tidx = {g.object_index(o) for o in truth.fraud_objects}
    indptr = g.sink_event_indptr
    bg_slopes = []
    target_slopes = {}
    for v in range(g.n_objects):
        _, prof = build_profile(g.sink_event_time[indptr[v]:indptr[v + 1]])
        top = max((p.slope for p in prof.pairs), default=0.0)
        if v in tidx:
            target_slopes[v] = top
        elif top > 0:
            bg_slopes.append(top)
    cutoff = np.percentile(bg_slopes, 95)
    surged = sum(1 for s in target_slopes.values() if s > cutoff)
    assert surged >= 0.9 * len(tidx)


def test_labels_round_trip(tmp_path):
    truth = GroundTruth(frozenset({"u1", "u9"}), frozenset({"o3"}))
    path = tmp_path / "labels.csv"
    write_labels(truth, path)
    assert read_labels(path) == truth
