from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from fraudsift import DataError, DetectorConfig, RatingScale, bench_graph, fast_greedy, ingest
from fraudsift.contrast import ContrastState, SignalContext, contrast_score
from fraudsift.temporal import MAX_BINS, histogram_segments, sigma_from_drop_weights
from oracles import (build_profile, events, involvement_ratio, phi_involvement,
                     rating_divergence, row_scores, seed_row, signal_arrays, suspicion_scale,
                     user_scores)


def state_for(graph, seed=None):
    ctx = SignalContext(graph, DetectorConfig())
    seed = seed if seed is not None else np.arange(graph.n_users)
    return ContrastState(ctx, seed)


# -- scalar signal pieces ----------------------------------------------------


def test_suspicion_scale_examples():
    assert suspicion_scale(1.0, 32) == 1.0
    assert suspicion_scale(0.0, 32) == pytest.approx(1 / 32)
    assert suspicion_scale(0.5, 32) == pytest.approx(0.17678, abs=1e-5)
    with pytest.raises(DataError):
        suspicion_scale(0.5, 1.0)


def test_involvement_ratio_examples():
    assert involvement_ratio(6.0, 6.0) == 1.0
    assert involvement_ratio(0.0, 6.0) == 0.0
    assert involvement_ratio(3.0, 6.0) == 0.5
    with pytest.raises(DataError, match="isolated sink"):
        involvement_ratio(0.0, 0.0)


def test_contrast_score_examples():
    assert contrast_score((1.0, 1.0, 1.0), 32.0) == pytest.approx(1.0)
    assert contrast_score((0.0, 0.0, 0.0), 32.0) == pytest.approx(1 / 32768)
    assert contrast_score((1.0, 0.5, 0.0), 32.0) == pytest.approx(0.005524, abs=1e-6)
    # a signal left out contributes a factor of one
    assert contrast_score((0.5,), 32.0) == pytest.approx(32 ** -0.5)


def test_contrast_monotone_in_each_signal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, p, k = rng.uniform(0, 1, 3)
        up = rng.uniform(1e-6, 1 - max(a, p, k)) if max(a, p, k) < 1 else 0.0
        if up == 0.0:
            continue
        base = contrast_score((a, p, k), 32.0)
        assert contrast_score((a + up, p, k), 32.0) > base
        assert contrast_score((a, p + up, k), 32.0) > base
        assert contrast_score((a, p, k + up), 32.0) > base


def test_contrast_ranking_is_base_invariant():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.uniform(0, 1, 3)
        y = rng.uniform(0, 1, 3)
        if abs(x.sum() - y.sum()) < 1e-9:
            continue
        orders = []
        for b in (2.0, 8.0, 32.0, 128.0):
            orders.append(contrast_score(x, b) > contrast_score(y, b))
        assert len(set(orders)) == 1
        assert orders[0] == (x.sum() > y.sum())


def test_rating_divergence_zero_cases():
    assert rating_divergence(np.array([5.0, 0]), np.array([5.0, 0]), 5, 5) \
        == pytest.approx(0.0)
    # one side owning all the ratings kills the balance factor
    assert rating_divergence(np.array([9.0, 1]), np.array([0.0, 0]), 10, 0) == 0.0
    assert rating_divergence(np.zeros(3), np.zeros(3), 0, 0) == 0.0


def test_rating_divergence_matches_direct_sum_oracle():
    # 8 informative categories; the tracked set rates top, the rest bottom
    n_a = np.zeros(8)
    n_a[7] = 20
    n_r = np.zeros(8)
    n_r[0] = 20
    eps = 1e-3
    p = (n_a + eps) / (20 + eps * 8)
    q = (n_r + eps) / (20 + eps * 8)
    oracle = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
    got = rating_divergence(n_a, n_r, 20.0, 20.0, smoothing=eps)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got > 9.0  # strongly divergent


def test_kappa_max_normalization_marks_the_extreme_sink():
    scale = RatingScale([1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5], neutral=[3])
    ts = 1000
    records = []
    # v_hot: group rates 5.0, everyone else 1.0 -> maximal divergence
    for i in range(20):
        records.append((f"a{i}", "v_hot", ts + i, 5.0))
        records.append((f"b{i}", "v_hot", ts + i, 1.0))
    # v_mild: overlapping distributions, so a much smaller divergence
    for i in range(20):
        records.append((f"a{i}", "v_mild", ts + i, 4.0 if i % 2 else 4.5))
        records.append((f"b{i}", "v_mild", ts + i, 4.0 if i % 4 else 3.5))
    g = ingest(records, scale=scale)
    st = state_for(g, seed=[g.user_ids.index(f"a{i}") for i in range(20)])
    hot = int(np.searchsorted(st.domain, g.object_index("v_hot")))
    mild = int(np.searchsorted(st.domain, g.object_index("v_mild")))
    assert st.kappa[hot] == pytest.approx(1.0)
    assert st.kappa[mild] < 1.0
    assert st.kw[hot] == pytest.approx(st.kmax)


def test_state_signals_match_scalar_oracles(make_graph):
    g = make_graph(n_users=40, n_objects=12, n_events=900, seed=12)
    seed = np.arange(0, 40, 2)
    st = state_for(g, seed=seed)
    assert st.kmax > 0 and np.count_nonzero(st.phi) > 3
    in_seed = np.isin(g.pair_src[g.sink_event_pair], seed)
    indptr = g.sink_event_indptr
    for k, v in enumerate(st.domain):
        total, engaged = st.cnt_total[k], st.cnt_set[k]
        assert st.alpha[k] == involvement_ratio(engaged, total)
        times = g.sink_event_time[indptr[v]:indptr[v + 1]]
        _, profile = build_profile(times)
        subset = times[in_seed[indptr[v]:indptr[v + 1]]]
        assert st.phi[k] == pytest.approx(phi_involvement(profile, subset, times),
                                          rel=1e-12, abs=1e-15)
        rest = st.cat_total[k] - st.cat_set[k]
        assert st.kw[k] == pytest.approx(
            rating_divergence(st.cat_set[k], rest, engaged, total - engaged),
            rel=1e-12, abs=1e-15)


def oracle_contrast(graph, users, domain, signals, base):
    """base ** sum of (x - 1) over ``signals`` for every domain sink, each
    signal from its scalar oracle with ``users`` as the tracked set."""
    us, vs, _, ratings = graph.event_arrays()
    tracked = np.isin(us, users)
    in_set = np.isin(graph.pair_src[graph.sink_event_pair], users)
    informative = [r for r in graph.scale.values if r not in graph.scale.neutral]
    indptr = graph.sink_event_indptr
    alpha, phi, kw = [], [], []
    for v in domain:
        at_v = vs == v
        total, engaged = float(at_v.sum()), float((at_v & tracked).sum())
        alpha.append(involvement_ratio(engaged, total))
        times = graph.sink_event_time[indptr[v]:indptr[v + 1]]
        _, profile = build_profile(times)
        phi.append(phi_involvement(profile, times[in_set[indptr[v]:indptr[v + 1]]], times))
        n_set = [np.count_nonzero(at_v & tracked & (ratings == r)) for r in informative]
        n_rest = [np.count_nonzero(at_v & ~tracked & (ratings == r)) for r in informative]
        kw.append(rating_divergence(n_set, n_rest, engaged, total - engaged))
    kw = np.asarray(kw)
    kappa = kw / kw.max() if kw.max() > 0 else np.zeros_like(kw)
    values = {"alpha": np.asarray(alpha), "phi": np.asarray(phi), "kappa": kappa}
    return base ** sum(values[name] - 1.0 for name in signals)


@pytest.mark.parametrize("signals", [s for r in (1, 2, 3) for s in
                                     itertools.combinations(("alpha", "phi", "kappa"), r)])
def test_contrast_matches_scalar_oracles_for_every_signal_subset(make_graph, signals):
    g = make_graph(n_users=40, n_objects=12, n_events=900, seed=12)
    seed = np.arange(0, 40, 2)
    ctx = SignalContext(g, DetectorConfig(base=8.0, signals=signals))
    assert [ctx.use_alpha, ctx.use_phi, ctx.use_kappa] == [
        name in signals for name in ("alpha", "phi", "kappa")]
    st = ContrastState(ctx, seed)
    for r in (None, 3, 7):  # as built, then after two removals
        if r is not None:
            st._remove_local(r)
        want = oracle_contrast(g, st.seed_idx[st.active], st.domain, signals, 8.0)
        assert st.P == pytest.approx(want, rel=1e-12)


# -- objective ----------------------------------------------------------------


def test_objective_single_edge():
    g = ingest([("u1", "v1")])
    st = state_for(g)
    assert st.objective() == pytest.approx(0.5)


def test_objective_reduces_to_plain_density_when_all_contrast_is_one():
    g = ingest([("u1", "v1"), ("u1", "v1"), ("u2", "v2"), ("u3", "v3"), ("u3", "v1")])
    st = state_for(g)  # A = U, topology only: every sink fully involved
    assert np.allclose(st.P, 1.0)
    density = g.n_events / (g.n_users + g.n_objects)
    assert st.objective() == pytest.approx(density)


def test_objective_matches_formula_oracle_on_toy_graph():
    # 4 users x 3 objects with multiplicities; topology-only, A = first 3 users
    events = [("u0", "o0")] * 3 + [("u1", "o0")] * 2 + [("u2", "o0")] + \
             [("u0", "o1"), ("u1", "o1")] + [("u3", "o1")] * 4 + \
             [("u3", "o2")] * 2
    g = ingest(events)
    seed = [0, 1, 2]
    st = state_for(g, seed=seed)
    b = 32.0
    f_a = {"o0": 6.0, "o1": 2.0}
    f_u = {"o0": 6.0, "o1": 6.0}
    domain = ["o0", "o1"]  # o2 is not adjacent to the seed
    p = {v: b ** (f_a[v] / f_u[v] - 1.0) for v in domain}
    oracle = sum(f_a[v] * p[v] for v in domain) / (3 + sum(p.values()))
    assert st.objective() == pytest.approx(oracle, rel=1e-12)


def test_objective_empty_set_errors():
    g = ingest([("u1", "v1")])
    st = state_for(g)
    st._remove_local(0)
    assert st.n_active == 0
    with pytest.raises(DataError, match="empty set"):
        st.objective()


# -- user scores -----------------------------------------------------------------


def test_user_scores_equal_weighted_outdegree_when_contrast_is_one():
    g = ingest([("u1", "v1"), ("u1", "v1"), ("u1", "v2"), ("u2", "v3")])
    st = state_for(g)
    scores = user_scores(st)
    assert scores["u1"] == pytest.approx(3.0)
    assert scores["u2"] == pytest.approx(1.0)


def test_user_scores_approach_degree_over_base_for_diluted_sinks():
    # u0 rates d sinks that each carry 999 other raters: alpha ~ 1e-3, P ~ 1/b
    d = 4
    records = [("u0", f"v{j}") for j in range(d)]
    for j in range(d):
        records += [(f"w{i}_{j}", f"v{j}") for i in range(999)]
    g = ingest(records)
    st = state_for(g, seed=[g.user_ids.index("u0")])
    s = user_scores(st)["u0"]
    assert s == pytest.approx(d / 32.0, rel=0.01)


def test_user_scores_match_explicit_summation(make_graph):
    g = make_graph(n_users=12, n_objects=9, n_events=80, seed=21)
    st = state_for(g)
    scores = user_scores(st)
    for u in g.user_ids:
        ui = g.user_ids.index(u)
        total = 0.0
        for pid in range(g.src_pair_indptr[ui], g.src_pair_indptr[ui + 1]):
            vi = g.pair_dst[pid]
            contrast = st.P[np.searchsorted(st.domain, vi)]
            total += st.ctx.sigma[vi] * g.pair_count[pid] * contrast
        assert scores[u] == pytest.approx(total, rel=1e-9)


# -- removal ---------------------------------------------------------------------


def test_remove_user_requires_membership():
    g = ingest([("u1", "v1"), ("u2", "v1")])
    st = state_for(g, seed=[g.user_ids.index("u1")])
    # the seed block holds rows for its own users only
    assert st.seed_idx.tolist() == [g.user_ids.index("u1")]
    st._remove_local(0)
    with pytest.raises(DataError, match="already removed"):
        st._remove_local(0)


def test_remove_user_touches_only_adjacent_sinks():
    g = ingest([("u1", "v1"), ("u2", "v2"), ("u3", "v1"), ("u3", "v2")],
               )
    st = state_for(g)
    before = st.P.copy()
    st._remove_local(seed_row(st, "u2"))  # adjacent to v2 only
    v1 = int(np.searchsorted(st.domain, g.object_index("v1")))
    v2 = int(np.searchsorted(st.domain, g.object_index("v2")))
    assert st.P[v1] == before[v1]
    assert st.P[v2] != before[v2]


@pytest.mark.parametrize("seed", [3, 4, 5, "bench_graph_100k"])
def test_signal_context_matches_per_sink_oracle(make_graph, seed):
    if seed == "bench_graph_100k":
        g = bench_graph(100_000, seed=3)[0]
        # some sinks at the bin cap, and their bins mostly empty and not stored
        hists = histogram_segments(g.sink_event_time, g.sink_event_indptr)
        n_bins = hists.n_bins()
        assert np.count_nonzero(n_bins == MAX_BINS) == 8
        assert np.count_nonzero((n_bins > 1024) & (n_bins < MAX_BINS)) == 4
        assert hists.bins.size < 0.05 * n_bins.sum()
    else:
        g = make_graph(n_users=60, n_objects=25, n_events=2500, seed=seed)
    ctx = SignalContext(g, DetectorConfig())
    pair_w, sink_total, drop_w = signal_arrays(g)
    assert np.count_nonzero(sink_total) > 5 and np.count_nonzero(drop_w) > 5
    assert ctx.pair_phi_weight.tobytes() == pair_w.tobytes()
    assert ctx.sink_phi_total.tobytes() == sink_total.tobytes()
    assert ctx.drop_weights.tobytes() == drop_w.tobytes()
    assert ctx.sigma.tobytes() == sigma_from_drop_weights(drop_w).tobytes()


@pytest.mark.parametrize("seed", [6, 7, 8])
@pytest.mark.parametrize("all_neutral", [False, True])
def test_rating_tables_match_an_event_count(make_graph, seed, all_neutral):
    # the default neutral band (3.0) holds about a fifth of the events
    scale = RatingScale.from_range(1, 5, 1)
    if all_neutral:
        scale = RatingScale(scale.values, neutral=scale.values)
    g = make_graph(n_users=30, n_objects=12, n_events=300, seed=seed, scale=scale)
    ctx = SignalContext(g, DetectorConfig())
    cats = [v for v in scale.values if v not in scale.neutral]
    assert ctx.category_values.tolist() == cats
    pair_of = {(g.user_ids[g.pair_src[p]], g.object_ids[g.pair_dst[p]]): p
               for p in range(g.n_pairs)}
    pair_counts = np.zeros((g.n_pairs, max(len(cats), 1)))
    sink_counts = np.zeros((g.n_objects, max(len(cats), 1)))
    for user, obj, _, rating in events(g):
        if rating in cats:
            pair_counts[pair_of[user, obj], cats.index(rating)] += 1
            sink_counts[g.object_index(obj), cats.index(rating)] += 1
    assert ctx.pair_cats.toarray().tolist() == pair_counts.tolist()
    assert ctx.pair_cats.has_canonical_format
    # float64 whether or not any event is rated
    assert ctx.sink_cat_counts.dtype == sink_counts.dtype
    assert ctx.sink_cat_counts.tobytes() == sink_counts.tobytes()
    st = ContrastState(ctx, np.arange(g.n_users // 2))
    if all_neutral:
        # one all-zero column: no sink carries rating signal, yet detection runs
        assert pair_counts.shape[1] == 1 and not pair_counts.any()
        assert not st.kappa.any()
        assert fast_greedy(g, DetectorConfig(num_seeds=2)).users
    else:
        assert st.kappa.max() == 1.0


def test_degrades_to_topology_only_without_attributes(make_graph):
    g = make_graph(n_users=20, n_objects=15, n_events=150, seed=8,
                   timestamps=False, ratings=False)
    st = state_for(g, seed=np.arange(10))
    expected = 32.0 ** (st.cnt_set / st.cnt_total - 1.0)
    assert np.allclose(st.P, expected, rtol=1e-12)
    st._remove_local(3)
    expected = 32.0 ** (st.cnt_set / st.cnt_total - 1.0)
    assert np.allclose(st.P, expected, rtol=1e-12)


def _assert_state_matches_rebuild(st, ref):
    for name in ("cnt_set", "alpha", "phi", "kw", "kappa", "P"):
        assert np.allclose(getattr(st, name), getattr(ref, name),
                           rtol=1e-9, atol=1e-12), name
    live_a = np.where(st.active, row_scores(st), 0.0)
    live_b = np.where(ref.active, row_scores(ref), 0.0)
    assert np.allclose(live_a, live_b, rtol=1e-9, atol=1e-12)
    if st.n_active:
        assert st.objective() == pytest.approx(ref.objective(), rel=1e-9)


def test_incremental_updates_match_rebuild(make_graph):
    rng = np.random.default_rng(3)
    for trial in range(5):
        g = make_graph(n_users=50, n_objects=40, n_events=400, seed=100 + trial)
        ctx = SignalContext(g, DetectorConfig())
        seed = np.arange(50)
        st = ContrastState(ctx, seed)
        removed = []
        for u in rng.permutation(50)[:30]:
            st._remove_local(int(u))
            removed.append(int(u))
            keep = np.ones(50, dtype=bool)
            keep[removed] = False
            ref = ContrastState(ctx, seed)
            ref.reset(keep)
            _assert_state_matches_rebuild(st, ref)


def test_shaving_compacts_only_the_product_matrix(make_graph):
    g = make_graph(n_users=80, n_objects=40, n_events=800, seed=12)
    st = state_for(g, seed=np.arange(40))
    assert st.ctx.use_phi and st.ctx.use_kappa and st.kmax > 0

    def seed_block():
        return [st.bursts.tobytes()] + [
            (m.shape, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes())
            for m in (st.seed_counts, st.ratings)]

    built = seed_block()
    stored = [st.rows.size]
    while st.n_active > 5:
        st._remove_local(st.argmin_active_score())
        stored.append(st.rows.size)
    assert sum(b < a for a, b in zip(stored, stored[1:])) >= 2
    assert st.n_rescales >= 1
    # the seed block still holds every seed row, as built
    assert st.seed_counts.shape[0] == 40
    assert seed_block() == built
    # the product's matrix holds exactly the rows ``rows``
    want = st.seed_counts[st.rows]
    assert st.counts.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(st.counts, name), getattr(want, name)), name

    # a reset of the shaved block equals one of a fresh block, byte for byte
    mask = np.random.default_rng(5).random(40) < 0.5
    rescales = st.n_rescales
    st.reset(mask)
    fresh = state_for(g, seed=np.arange(40))
    fresh.reset(mask)
    assert st.n_rescales == rescales and seed_block() == built
    for name in ("active", "rows", "cnt_set", "phi_set", "cat_set", "alpha", "phi", "kw",
                 "kappa", "P", "_score"):
        assert getattr(st, name).tobytes() == getattr(fresh, name).tobytes(), name
    for name in ("n_active", "kmax", "num", "psum"):
        assert getattr(st, name) == getattr(fresh, name), name
    for name in ("data", "indices", "indptr"):
        assert getattr(st.counts, name).tobytes() == getattr(fresh.counts, name).tobytes()


@pytest.fixture(scope="module")
def ceiling_graph():
    g, truth = bench_graph(20_000, seed=3)
    return g, np.flatnonzero(np.isin(g.user_ids, sorted(truth.fraud_users)))


@pytest.mark.parametrize("signals", [s for r in (1, 2, 3)
                                     for s in itertools.combinations(("alpha", "phi", "kappa"), r)],
                         ids="+".join)
def test_ceiling_bounds_every_subset_of_the_active_set(ceiling_graph, signals):
    g, fraud = ceiling_graph
    ctx = SignalContext(g, DetectorConfig(signals=signals))
    rng = np.random.default_rng(len(signals))
    closest = 0.0
    for i in range(12):
        # seeds of 3-10 users, planted ones mixed with any others, stopped
        # a third of the way through their peel
        size = 3 + i % 8
        n_fraud = int(rng.integers(0, size + 1))
        seed = np.union1d(rng.choice(fraud, n_fraud, replace=False),
                          rng.choice(g.n_users, size - n_fraud, replace=False))
        st = ContrastState(ctx, seed)
        for _ in range(seed.size // 3):
            st._remove_local(st.argmin_active_score())
        bound = st.ceiling()
        live = np.flatnonzero(st.active)
        for picks in itertools.product((False, True), repeat=live.size):
            if not any(picks):
                continue
            mask = np.zeros(seed.size, dtype=bool)
            mask[live[list(picks)]] = True
            st.reset(mask)
            assert st.objective() <= bound
            closest = max(closest, st.objective() / bound)
    # the bound is not vacuous; it drops kappa's factor, so it is looser
    # with kappa on (measured 0.16-0.68 with kappa, 0.95-0.995 without)
    assert closest > (0.1 if "kappa" in signals else 0.9)


def test_reset_refuses_a_mask_of_the_wrong_shape():
    st = state_for(ingest([("u1", "v1"), ("u2", "v1"), ("u3", "v2")]))
    for mask in (np.ones(2, dtype=bool), np.ones(4, dtype=bool), np.ones((3, 1), dtype=bool)):
        with pytest.raises(DataError, match="active mask must match the seed size"):
            st.reset(mask)
    assert st.active.tolist() == [True] * 3
