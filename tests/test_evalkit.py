from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraudsift import (AccuracyCurve, DataError, DetectorConfig, evalkit, f_measure,
                       gen_hyperbolic, ingest)
from fraudsift.evalkit import density_sweep, roc_auc_from_arrays
from oracles import avg_degree_baseline, avg_degree_peel, roc_auc


# -- f-measure -------------------------------------------------------------


def test_f_measure_perfect_and_disjoint():
    assert f_measure({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)
    assert f_measure({"a"}, {"b"}) == (0.0, 0.0, 0.0)
    assert f_measure(set(), {"b"}) == (0.0, 0.0, 0.0)


def test_f_measure_partial_overlap():
    pred = {f"p{i}" for i in range(100)}
    truth = pred | {f"t{i}" for i in range(100)}
    p, r, f1 = f_measure(pred, truth)
    assert (p, r) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3)


def test_f_measure_swap_swaps_precision_recall():
    a = {"x", "y", "z"}
    b = {"y", "z", "w", "v"}
    p1, r1, f1 = f_measure(a, b)
    p2, r2, f2 = f_measure(b, a)
    assert (p1, r1) == (r2, p2)
    assert f1 == pytest.approx(f2)


def test_f_measure_empty_truth_errors():
    with pytest.raises(DataError):
        f_measure({"a"}, set())


# -- roc auc ----------------------------------------------------------------


def pair_count_auc(scores: dict, truth: set) -> float:
    pos = [scores[i] for i in scores if i in truth]
    neg = [scores[i] for i in scores if i not in truth]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_separable_is_one():
    scores = {"a": 9, "b": 8, "c": 2, "d": 1}
    assert roc_auc(scores, {"a", "b"}) == 1.0


def test_auc_reads_an_iterator_truth_once():
    scores = {"a": 1.0, "b": 3.0, "c": 2.0}
    assert roc_auc(scores, iter(["a", "b"])) == roc_auc(scores, {"a", "b"}) == 0.5


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    values = rng.normal(size=4000)
    labels = rng.uniform(size=4000) < 0.5
    auc = roc_auc_from_arrays(values, labels)
    assert auc == pytest.approx(0.5, abs=0.02)


def test_auc_tie_fixture_matches_pair_count_oracle():
    scores = {"a": 5.0, "b": 4.0, "c": 4.0, "d": 3.0, "e": 2.0, "f": 1.0}
    truth = {"a", "b"}
    assert pair_count_auc(scores, truth) == pytest.approx(0.9375)
    assert roc_auc(scores, truth) == pytest.approx(0.9375)


def test_auc_random_fixtures_match_pair_count_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        scores = {i: float(rng.integers(0, 5)) for i in range(n)}
        truth = set(rng.choice(n, rng.integers(1, n), replace=False).tolist())
        if len(truth) == n:
            continue
        assert roc_auc(scores, truth) == pytest.approx(pair_count_auc(scores, truth))


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    values = rng.normal(size=300)
    labels = rng.uniform(size=300) < 0.3
    a = roc_auc_from_arrays(values, labels)
    assert roc_auc_from_arrays(np.exp(values), labels) == pytest.approx(a)
    assert roc_auc_from_arrays(3 * values + 7, labels) == pytest.approx(a)


def test_auc_single_class_errors():
    with pytest.raises(DataError):
        roc_auc({"a": 1.0, "b": 2.0}, {"a", "b"})


# -- accuracy curve ------------------------------------------------------------


def test_curve_area_ideal_value():
    points = tuple((d, 1.0) for d in (0.01, 0.05, 0.1, 0.5, 1.0))
    curve = AccuracyCurve(points)
    assert curve.area == pytest.approx(0.995, abs=1e-9)


def test_curve_area_never_detect_is_zero():
    curve = AccuracyCurve(tuple((d, 0.0) for d in (0.01, 0.1, 1.0)))
    assert curve.area == 0.0
    assert curve.lowest_detection_density() is None


def test_curve_validates_points():
    with pytest.raises(DataError):
        AccuracyCurve(((0.5, 1.0), (0.5, 0.9)))
    with pytest.raises(DataError):
        AccuracyCurve(((0.5, 1.5),))


def test_curve_lowest_detection_density():
    curve = AccuracyCurve(((0.05, 0.4), (0.1, 0.92), (0.5, 0.85), (1.0, 0.99)))
    assert curve.lowest_detection_density() == 0.1


# -- average degree baseline ------------------------------------------------------


def test_baseline_complete_block_among_strays():
    events = [(f"b{i}", f"x{j}") for i in range(4) for j in range(3)]
    events += [(f"s{i}", f"w{i}") for i in range(3)]
    g = ingest(events)
    assert avg_degree_baseline(g) == {f"b{i}" for i in range(4)}


def test_baseline_single_edge_returns_the_user():
    g = ingest([("u1", "v1")])
    assert avg_degree_baseline(g) == {"u1"}


def test_baseline_matches_subset_brute_force():
    events = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x"),
              ("c", "y"), ("d", "z"), ("e", "w"), ("e", "z")]
    g = ingest(events)
    counts = g.counts_matrix().toarray()
    best, best_users = -1.0, None
    n_u, n_v = counts.shape
    for ru in range(1, n_u + 1):
        for users in itertools.combinations(range(n_u), ru):
            for rv in range(1, n_v + 1):
                for sinks in itertools.combinations(range(n_v), rv):
                    e = counts[np.ix_(users, sinks)].sum()
                    score = e / (ru + rv)
                    if score > best + 1e-12:
                        best, best_users = score, set(users)
    got = avg_degree_baseline(g)
    assert {g.user_ids.index(u) for u in got} == best_users


# degree ties: two 2x2 blocks and a stray edge, a 6-cycle, a 3x3 block and a star
TIED_GRAPHS = [
    [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)],
    [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)],
    [(i, j) for i in range(3) for j in range(3)] + [(3, 3), (3, 3), (4, 3)],
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
@example(TIED_GRAPHS[0])
@example(TIED_GRAPHS[1])
@example(TIED_GRAPHS[2])
def test_baseline_matches_naive_peeling_oracle(edges):
    g = ingest([(f"u{u}", f"v{v}") for u, v in edges])
    expected = avg_degree_peel(g.counts_matrix().toarray())
    assert {g.user_ids.index(u) for u in avg_degree_baseline(g)} == expected


# -- density sweep ------------------------------------------------------------------


def sweep_base(seed=0):
    g, _ = gen_hyperbolic(600, 300, power_exponent=0.5, density_target=0.5,
                          rng_seed=seed, block_shape=(100, 60),
                          noise_avg_degree=2.0, timestamps=True, ratings=True)
    return g


def perfect_stub(graph, truth):
    scores = np.zeros(graph.n_objects)
    for o in truth.fraud_objects:
        scores[graph.object_index(o)] = 1.0
    return truth.fraud_users, scores


def never_stub(graph, truth):
    return frozenset(), np.arange(graph.n_objects, dtype=float)


def stub_detector(monkeypatch, stub):
    """Make density_sweep detect with ``stub(graph, truth)``, which returns
    (user ids, per-sink scores); truth is that of the injection just made."""
    inject = evalkit.inject
    last = {}

    def recording_inject(base, cfg):
        last["injected"], last["truth"] = inject(base, cfg)
        return last["injected"], last["truth"]

    def fast_greedy(graph, config):
        assert graph is last["injected"]
        users, scores = stub(graph, last["truth"])
        return SimpleNamespace(users=users, sink_scores=scores)

    monkeypatch.setattr(evalkit, "inject", recording_inject)
    monkeypatch.setattr(evalkit, "fast_greedy", fast_greedy)


def test_density_sweep_perfect_stub_reaches_ideal_area(monkeypatch):
    from fraudsift import InjectionConfig

    stub_detector(monkeypatch, perfect_stub)
    proto = InjectionConfig(n_fraudsters=10, n_objects=5, ratings_per_object=5)
    res = density_sweep(sweep_base(), [0.01, 0.05, 0.1, 0.5, 1.0],
                        DetectorConfig(), inject_proto=proto, seed=1)
    assert all(p.error is None for p in res.points)
    assert res.users_curve.area == pytest.approx(0.995, abs=1e-9)
    assert res.sinks_curve.area == pytest.approx(0.995, abs=1e-9)
    assert res.summary()["lowest_detection_density_users"] == 0.01


def test_density_sweep_never_detect_stub(monkeypatch):
    from fraudsift import InjectionConfig

    stub_detector(monkeypatch, never_stub)
    proto = InjectionConfig(n_fraudsters=10, n_objects=5, ratings_per_object=5)
    res = density_sweep(sweep_base(), [0.1, 0.5, 1.0], DetectorConfig(),
                        inject_proto=proto, seed=1)
    assert res.users_curve.area == 0.0
    summary = res.summary()
    assert summary["lowest_detection_density_users"] is None
    assert "users_auc" in summary and "sinks_auc" in summary


def test_density_sweep_continues_past_failing_points(monkeypatch):
    from fraudsift import InjectionConfig

    def flaky(graph, truth):
        raise RuntimeError("boom")

    stub_detector(monkeypatch, flaky)
    proto = InjectionConfig(n_fraudsters=10, n_objects=5, ratings_per_object=5)
    res = density_sweep(sweep_base(), [0.5, 1.0], DetectorConfig(),
                        inject_proto=proto, seed=1)
    assert all(p.error and "boom" in p.error for p in res.points)
    assert res.users_curve.points == ()


def test_density_sweep_validates_grid():
    with pytest.raises(DataError):
        density_sweep(sweep_base(), [], DetectorConfig())
    with pytest.raises(DataError):
        density_sweep(sweep_base(), [0.0, 0.5], DetectorConfig())


def test_density_sweep_is_deterministic():
    from fraudsift import InjectionConfig, fast_greedy

    base = sweep_base(seed=3)
    proto = InjectionConfig(n_fraudsters=40, n_objects=20, ratings_per_object=20)
    cfg = DetectorConfig(num_seeds=3, cap_exponent=None)
    r1 = density_sweep(base, [0.5], cfg, inject_proto=proto, seed=7)
    r2 = density_sweep(base, [0.5], cfg, inject_proto=proto, seed=7)
    assert r1.points[0].user_f1 == r2.points[0].user_f1
    assert r1.points[0].sink_auc == r2.points[0].sink_auc
