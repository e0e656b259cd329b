from __future__ import annotations

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudsift import (BipartiteGraph, DataError, DetectorConfig, RatingScale,
                       bench_graph, fast_greedy, gen_hyperbolic, greedy_shaving, ingest,
                       inject, InjectionConfig, f_measure)
from fraudsift import detector
from fraudsift.detector import matricize, svd_seeds
from fraudsift.contrast import ContrastState, SignalContext
from oracles import (GatherState, argsort_truncation, full_peel_fast_greedy, gather_shave,
                     row_scores, seeding_design, svds_truncated_svd)


def brute_force_best(graph, base=32.0):
    """Exhaustive objective maximization over every non-empty user subset,
    with sink contrast summed over all sinks (the full-seed domain)."""
    n_u, n_v = graph.n_users, graph.n_objects
    counts = graph.counts_matrix().toarray()
    f_u = counts.sum(axis=0)
    best, best_set = -1.0, None
    for r in range(1, n_u + 1):
        for subset in itertools.combinations(range(n_u), r):
            f_a = counts[list(subset)].sum(axis=0)
            p = base ** (f_a / f_u - 1.0)
            hs = (f_a * p).sum() / (len(subset) + p.sum())
            if hs > best + 1e-12:
                best, best_set = hs, frozenset(subset)
    return best, best_set


# -- greedy shaving ------------------------------------------------------------


def shave(graph, seed_idx):
    """greedy_shaving from ``seed_idx`` with every signal the graph carries."""
    return greedy_shaving(SignalContext(graph, DetectorConfig()), seed_idx)


def test_single_user_seed_returns_itself():
    g = ingest([("u1", "v1"), ("u2", "v1")])
    res = shave(g, [g.user_ids.index("u1")])
    assert res.users == ("u1",)
    assert len(res.trace) == 1


def test_degenerate_seed_errors(make_graph):
    g = make_graph(n_users=5, n_objects=4, n_events=20, seed=1,
                   timestamps=False, ratings=False)
    with pytest.raises(DataError, match="empty seed"):
        shave(g, [])


def test_planted_block_matches_subset_brute_force():
    # complete 3x2 block plus two stray users with one edge each
    events = [(f"b{i}", f"x{j}") for i in range(3) for j in range(2)]
    events += [("s0", "w0"), ("s1", "w1")]
    g = ingest(events)
    res = shave(g, np.arange(g.n_users))
    oracle_hs, oracle_set = brute_force_best(g)
    assert set(res.users) == {g.user_ids[i] for i in oracle_set}
    assert set(res.users) == {"b0", "b1", "b2"}
    assert res.objective == pytest.approx(oracle_hs, rel=1e-9)


def test_shaving_objective_dominates_trajectory(make_graph):
    g = make_graph(n_users=12, n_objects=8, n_events=70, seed=33,
                   timestamps=False, ratings=False)
    ctx = SignalContext(g, DetectorConfig())
    res = greedy_shaving(ctx, np.arange(12))
    assert res.objective == pytest.approx(max(h for _, h in res.trace), rel=1e-9)
    # oracle: rebuild the state at every trajectory prefix and recompute
    sizes = [n for n, _ in res.trace]
    assert sizes[0] == 12 and sizes[-1] == 1


def test_shaving_trajectory_matches_scratch_recompute(make_graph):
    g = make_graph(n_users=12, n_objects=8, n_events=70, seed=34,
                   timestamps=False, ratings=False)
    ctx = SignalContext(g, DetectorConfig())
    seed = np.arange(12)
    res = greedy_shaving(ctx, seed)
    # replay the same shave tracking removals, then recompute each prefix
    st = ContrastState(ctx, seed)
    objs = [st.objective()]
    removed = []
    while st.n_active > 1:
        r = st.argmin_active_score()
        removed.append(r)
        st._remove_local(r)
        keep = np.ones(12, dtype=bool)
        keep[removed] = False
        ref = ContrastState(ctx, seed)
        ref.reset(keep)
        objs.append(ref.objective())
    assert res.objective == pytest.approx(max(objs), rel=1e-9)


def test_shaving_is_deterministic(make_graph):
    g = make_graph(n_users=25, n_objects=15, n_events=200, seed=8)
    a = shave(g, np.arange(g.n_users))
    b = shave(g, np.arange(g.n_users))
    assert a.users == b.users
    assert a.objective == b.objective


@st.composite
def shave_cases(draw):
    """A small timestamped, rated graph and a seed. Twin users copy another
    user's events, so their scores tie at every step."""
    n_users = draw(st.integers(2, 12))
    n_objects = draw(st.integers(1, 8))
    n_events = draw(st.integers(1, 150))
    span = draw(st.sampled_from([20, 1000, 100_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    records = [(f"u{u}", f"v{v}", int(t), float(r)) for u, v, t, r in zip(
        rng.integers(0, n_users, n_events), rng.integers(0, n_objects, n_events),
        rng.integers(0, span, n_events), rng.integers(1, 6, n_events))]
    for twin in range(draw(st.integers(0, 3))):
        copied = records[draw(st.integers(0, n_events - 1))][0]
        records += [(f"t{twin}", v, t, r) for u, v, t, r in records if u == copied]
    g = ingest(records, scale=RatingScale.from_range(1, 5, 1))
    seed = draw(st.one_of(st.just(list(range(g.n_users))),
                          st.lists(st.integers(0, g.n_users - 1), min_size=1, unique=True)))
    return g, np.sort(np.asarray(seed, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(shave_cases())
def test_shaving_matches_column_gather_oracle_bit_for_bit(case):
    g, seed = case
    for signals in (("alpha",), ("alpha", "phi"), None):
        ctx = SignalContext(g, DetectorConfig(signals=signals))
        state = ContrastState(ctx, seed)
        # the matvec sums each row in a per-sink gather's order only if
        # the row's columns ascend
        within_row = np.ones(state.counts.indices.size - 1, dtype=bool)
        within_row[state.counts.indptr[1:-1] - 1] = False
        assert (np.diff(state.counts.indices)[within_row] > 0).all()

        order = []
        remove = ContrastState._remove_local

        def recording(shaved, r):
            order.append(r)
            remove(shaved, r)

        with mock.patch.object(ContrastState, "_remove_local", recording):
            res = greedy_shaving(ctx, seed)
        want_order, want_trace, want_scores = gather_shave(ctx, seed)
        assert order == want_order
        assert np.array(res.trace).tobytes() == np.array(want_trace).tobytes()
        assert res.sink_scores.tobytes() == want_scores.tobytes()

        # the scores agree bit for bit at every step, not only where they
        # decide the argmin
        ref = GatherState(ctx, seed)
        for r in order[:-1]:
            state._remove_local(r)
            ref._remove_local(r)
            assert row_scores(state)[ref.active].tobytes() == ref.S[ref.active].tobytes()


def test_fast_greedy_builds_one_seed_block_per_seed(make_graph):
    g = make_graph(n_users=60, n_objects=30, n_events=600, seed=21)
    built = []
    init = ContrastState.__init__

    def counting(state, *args, **kwargs):
        init(state, *args, **kwargs)
        built.append(state.seed_idx)

    with mock.patch.object(ContrastState, "__init__", counting):
        res = fast_greedy(g, DetectorConfig(num_seeds=4))
    n_shaved = len(res.meta["seed_sizes"]) - res.meta["n_degenerate_seeds"]
    assert n_shaved >= 2
    assert len(built) == n_shaved


def test_a_seed_that_cannot_beat_is_stopped_and_one_that_can_is_peeled_in_full():
    g, config = sweep_shaped(0.05)
    ctx = SignalContext(g, config)
    seeds, _ = svd_seeds(seeding_design(g, config), config.num_seeds,
                         cap_exponent=config.cap_exponent)
    seed = max(seeds, key=len)
    full = greedy_shaving(ctx, seed)
    assert full.meta["steps"] == full.meta["seed_size"] == seed.size
    # its own objective is within reach: the peel runs to the end, unchanged
    same = greedy_shaving(ctx, seed, beat=full.objective)
    assert same.meta == full.meta
    assert (same.users, same.objective, same.trace) == (full.users, full.objective, full.trace)
    assert same.sink_scores.tobytes() == full.sink_scores.tobytes()
    # nothing reaches +inf: the check before the first removal stops the peel
    none = greedy_shaving(ctx, seed, beat=math.inf)
    assert none.meta["steps"] == 0 and len(none.trace) == 1
    assert none.user_indices.tolist() == seed.tolist()
    # a bar just above the best objective stops the peel partway
    above = greedy_shaving(ctx, seed, beat=full.objective * 1.01)
    assert 0 < above.meta["steps"] < seed.size
    assert above.objective <= full.objective
    assert above.trace == full.trace[:len(above.trace)]


@pytest.mark.parametrize("shaped", ["topology", "sweep_d005"])
def test_pruned_fast_greedy_equals_the_full_peel_oracle(shaped, caplog):
    g, config = topology_shaped() if shaped == "topology" else sweep_shaped(0.05)
    with caplog.at_level("DEBUG", logger=detector.__name__):
        got = fast_greedy(g, config)
    want = full_peel_fast_greedy(g, config)
    n_pruned = got.meta.pop("n_pruned_seeds")
    assert n_pruned >= 1
    assert sum("stopped after" in m for m in caplog.messages) == n_pruned
    assert got.users == want.users
    assert got.user_indices.tobytes() == want.user_indices.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert got.sink_scores.tobytes() == want.sink_scores.tobytes()
    assert np.array(got.trace).tobytes() == np.array(want.trace).tobytes()
    assert got.meta == want.meta


def test_compacting_shave_matches_gather_oracle_at_every_step():
    # hundreds of seed rows: the block drops its removed rows several times,
    # and kappa rescales on a compacted block
    g, config = sweep_shaped(0.05)
    seeds, _ = svd_seeds(seeding_design(g, config), config.num_seeds,
                         cap_exponent=config.cap_exponent)
    seed = max(seeds, key=len)
    assert seed.size >= 300
    ctx = SignalContext(g, config)
    want_order, want_trace, want_scores = gather_shave(ctx, seed)
    order = []
    remove = ContrastState._remove_local

    def recording(shaved, r):
        order.append(r)
        remove(shaved, r)

    with mock.patch.object(ContrastState, "_remove_local", recording):
        res = greedy_shaving(ctx, seed)
    assert order == want_order
    assert np.array(res.trace).tobytes() == np.array(want_trace).tobytes()
    assert res.sink_scores.tobytes() == want_scores.tobytes()

    state, ref = ContrastState(ctx, seed), GatherState(ctx, seed)
    stored, rescales = [state.rows.size], [0]
    for r in order[:-1]:
        assert state.argmin_active_score() == r
        state._remove_local(r)
        ref._remove_local(r)
        stored.append(state.rows.size)
        rescales.append(state.n_rescales)
        assert row_scores(state)[ref.active].tobytes() == ref.S[ref.active].tobytes()
        assert np.isinf(row_scores(state)[~state.active]).all()
        assert state.objective() == ref.objective()
    compactions = [t for t in range(1, len(stored)) if stored[t] < stored[t - 1]]
    assert len(compactions) >= 2
    assert rescales[-1] > rescales[compactions[0]]


# -- spectral seeding ------------------------------------------------------------


def test_rank_one_block_seed_is_exactly_the_block():
    rows = np.repeat(np.arange(3, 7), 5)
    cols = np.tile(np.arange(10, 15), 4)
    m = sp.coo_matrix((np.ones(20), (rows, cols)), shape=(30, 20)).tocsr()
    seeds, meta = svd_seeds(m, 1, cap_exponent=None)
    assert seeds[0].tolist() == [3, 4, 5, 6]


def test_seed_cap_arithmetic():
    assert int(10_000 ** (1 / 1.6)) == 316


def test_seed_cap_is_enforced():
    rng = np.random.default_rng(0)
    m = sp.random(400, 300, density=0.05, random_state=0, format="csr")
    m.data[:] = 1.0
    seeds, meta = svd_seeds(m, 3, cap_exponent=1 / 1.6)
    cap = int(400 ** (1 / 1.6))
    assert meta["cap"] == cap
    assert all(len(s) <= cap for s in seeds)


def test_planted_block_seed_recovers_most_rows():
    rng = np.random.default_rng(5)
    noise = sp.random(500, 400, density=0.01, random_state=1, format="csr")
    noise.data[:] = 1.0
    block = np.zeros((500, 400))
    planted = np.arange(40, 80)
    mask = rng.uniform(size=(40, 30)) < 0.9
    block[np.ix_(planted, np.arange(200, 230))] = mask
    m = sp.csr_matrix(noise + sp.csr_matrix(block))
    seeds, _ = svd_seeds(m, 3, cap_exponent=None)
    best_overlap = max(len(set(s.tolist()) & set(planted.tolist())) for s in seeds)
    assert best_overlap >= 36  # >= 90% of the planted rows


def test_seed_truncation_matches_full_argsort_rule():
    rng = np.random.default_rng(8)
    n = 400
    threshold = 1.0 / math.sqrt(n)
    vectors = [rng.standard_normal(n) * 2 * threshold,
               # ~100 copies of each value: ties straddle every cap below, and
               # a quarter of the entries sit exactly at the threshold
               rng.choice([threshold, 2 * threshold, 3 * threshold, -threshold], n),
               np.full(n, threshold), np.zeros(n)]
    for v in vectors:
        for w in (v, -v):
            for cap in (1, 5, 37, 150, n):
                want = argsort_truncation(w, threshold, cap)
                got = detector._above(w, threshold, cap)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_svd_seeds_truncates_and_dedups_as_the_argsort_rule(monkeypatch):
    n = 16
    threshold = 1.0 / math.sqrt(n)
    U = np.zeros((n, 4))
    # a five-way tie across the cap of 4, and one entry at the threshold
    U[[1, 2, 3, 4, 6, 9], 0] = [0.4] * 5 + [threshold]
    U[[4, 3, 2, 1, 6], 1] = [0.5] * 4 + [0.3]  # the same first seed again
    U[[0, 5], 2] = [0.7, -0.7]  # two signs: two orderings
    U[:, 3] = threshold  # nothing strictly above
    monkeypatch.setattr(detector, "truncated_svd",
                        lambda m, k, tol, max_iter: (U, np.ones(4)))
    seeds, meta = svd_seeds(sp.csr_matrix((n, 20)), 4, cap_exponent=0.5)
    assert meta["cap"] == 4
    want = []
    for i in range(4):
        for v in (U[:, i], -U[:, i]):
            idx = argsort_truncation(v, threshold, 4)
            if idx.size and not any(np.array_equal(idx, w) for w in want):
                want.append(idx)
    assert [s.tolist() for s in seeds] == [w.tolist() for w in want]
    assert [s.tolist() for s in seeds] == [[1, 2, 3, 4], [0], [5]]


def sweep_shaped(density):
    base, _ = gen_hyperbolic(2000, 1000, power_exponent=0.5, density_target=0.6,
                             rng_seed=1, block_shape=(400, 240), noise_avg_degree=6.0,
                             timestamps=True, ratings=True)
    cfg = InjectionConfig(n_fraudsters=int(round(40 / density)), n_objects=40,
                          ratings_per_object=40, camouflage_ratio=0.2, rng_seed=2)
    return inject(base, cfg)[0], DetectorConfig(cap_exponent=None)


def topology_shaped():
    base, _ = gen_hyperbolic(2000, 2000, power_exponent=0.4, density_target=0.84,
                             rng_seed=1, block_shape=(400, 400), noise_avg_degree=2.0)
    cfg = InjectionConfig(n_fraudsters=120, n_objects=60, ratings_per_object=72,
                          max_target_indegree=100, camouflage_ratio=0.2, rng_seed=2)
    return inject(base, cfg)[0], DetectorConfig(signals=("alpha",), cap_exponent=None)


def isolated_user_outranks_core():
    # the bench design plus a user alone on a column of their own, weighted
    # above the bound sqrt(max column sum * max row sum) on the design's
    # largest singular value: the top singular pair is that user's
    m = seeding_design(bench_graph(20_000, seed=1)[0], DetectorConfig())
    bound = np.sqrt(m.sum(axis=0).max() * m.sum(axis=1).max())
    return sp.bmat([[m, None], [None, sp.csr_matrix([[2 * bound]])]], format="csr")


@pytest.mark.parametrize("case", ["bench_20k", "sweep_d005", "topology", "isolated_top"])
def test_svd_seeds_match_svds_reference(case, monkeypatch):
    if case == "isolated_top":
        m, config = isolated_user_outranks_core(), DetectorConfig()
    else:
        graph, config = {"bench_20k": lambda: (bench_graph(20_000, seed=1)[0], DetectorConfig()),
                         "sweep_d005": lambda: sweep_shaped(0.05),
                         "topology": topology_shaped}[case]()
        m = seeding_design(graph, config)
    seeds, meta = svd_seeds(m, config.num_seeds, cap_exponent=config.cap_exponent)
    monkeypatch.setattr(detector, "truncated_svd", svds_truncated_svd)
    ref, ref_meta = svd_seeds(m, config.num_seeds, cap_exponent=config.cap_exponent)
    assert [s.tolist() for s in seeds] == [s.tolist() for s in ref]
    assert np.allclose(meta["singular_values"], ref_meta["singular_values"], rtol=1e-10)


# -- matricization ------------------------------------------------------------


def test_matricize_distinct_triples():
    scale = RatingScale.from_range(1, 5, 1)
    g = ingest([("u1", "v1", 100, 5.0), ("u2", "v1", 100, 5.0),
                ("u1", "v2", 100, 5.0)], scale=scale)
    m, labels = matricize(g, time_bin=86400.0)
    assert m.shape == (2, 2)
    sums = np.asarray(m.sum(axis=0)).ravel()
    assert sorted(sums.tolist()) == [1.0, 2.0]


def test_matricize_one_bin_one_cluster_per_object():
    scale = RatingScale.from_range(1, 5, 1)
    events = [(f"u{i}", f"v{j}", 1000 + j, 4.0) for i in range(4) for j in range(3)]
    g = ingest(events, scale=scale)
    m, labels = matricize(g, time_bin=86400.0)
    assert m.shape[1] == g.n_objects


def test_matricize_matches_group_by_oracle(make_graph):
    g = make_graph(n_users=40, n_objects=25, n_events=1000, seed=12)
    bin_width = 7200.0
    m, labels = matricize(g, time_bin=bin_width)
    us, vs, ts, rats = g.event_arrays()
    t0 = ts.min()
    lo, hi = min(g.scale.neutral), max(g.scale.neutral)

    def cl(rating):
        return 0 if rating < lo else 2 if rating > hi else 1

    triples = {(int(v), int((t - t0) // bin_width), cl(float(r)))
               for v, t, r in zip(vs, ts, rats)}
    assert m.shape[1] == len(triples)
    cells = Counter((int(u), int(v), int((t - t0) // bin_width), cl(float(r)))
                    for u, v, t, r in zip(us, vs, ts, rats))
    assert m.sum() == pytest.approx(sum(cells.values()))
    assert m.nnz == len(cells)


def test_matricize_requires_timestamps(make_graph):
    g = make_graph(n_users=5, n_objects=5, n_events=20, seed=3,
                   timestamps=False, ratings=False)
    with pytest.raises(DataError, match="matricization requires timestamps"):
        matricize(g)


def test_matricize_bounds_the_column_keys():
    # two objects, one rating cluster: n_bins * 2 must stay within 2^63
    g = ingest([("u1", "v1", 0), ("u2", "v2", 2**52)])
    m, labels = matricize(g, time_bin=2.0**-9)
    assert m.shape == (2, 2)
    assert labels["object"].tolist() == [0, 1]
    assert labels["time_bin"].tolist() == [0, 2**61]
    for time_bin in (2.0**-10, 1e-300):
        with pytest.raises(DataError, match="too fine for the 4503599627370496 s time span"):
            matricize(g, time_bin=time_bin)


def test_matricize_applies_column_weights():
    g = ingest([("u1", "v1", 0), ("u2", "v2", 0)])
    w = np.array([2.0, 5.0])
    m, labels = matricize(g, column_weights=w)
    got = {int(labels["object"][j]): float(m[:, j].sum()) for j in range(2)}
    assert got == {0: 2.0, 1: 5.0}


# -- signal resolution -----------------------------------------------------------


def test_signal_context_auto_degrades(make_graph):
    g = make_graph(n_users=5, n_objects=5, n_events=20, seed=3,
                   timestamps=False, ratings=False)
    ctx = SignalContext(g, DetectorConfig())
    assert (ctx.use_alpha, ctx.use_phi, ctx.use_kappa) == (True, False, False)


def test_signal_context_strict_phi_needs_timestamps(make_graph):
    g = make_graph(n_users=5, n_objects=5, n_events=20, seed=3,
                   timestamps=False, ratings=False)
    with pytest.raises(DataError, match="requires timestamps"):
        SignalContext(g, DetectorConfig(signals=("phi",)))
    with pytest.raises(DataError, match="requires ratings"):
        SignalContext(g, DetectorConfig(signals=("alpha", "kappa")))
    with pytest.raises(DataError, match="unknown signals"):
        SignalContext(g, DetectorConfig(signals=("alpha", "beta")))
    with pytest.raises(DataError, match="at least one signal"):
        SignalContext(g, DetectorConfig(signals=()))


# -- fast greedy ------------------------------------------------------------------


def test_fast_greedy_finds_complete_block():
    events = [(f"b{i}", f"x{j}") for i in range(4) for j in range(3)]
    events += [(f"n{i}", f"y{i}") for i in range(6)]
    g = ingest(events)
    res = fast_greedy(g, DetectorConfig(num_seeds=4))
    assert set(res.users) == {f"b{i}" for i in range(4)}
    block_scores = [res.sink_scores[g.object_index(f"x{j}")] for j in range(3)]
    other_scores = [res.sink_scores[g.object_index(f"y{i}")] for i in range(6)]
    assert min(block_scores) > max(other_scores)


def test_fast_greedy_objective_dominates_all_seeds(make_graph):
    g = make_graph(n_users=40, n_objects=25, n_events=400, seed=10)
    res = fast_greedy(g, DetectorConfig(num_seeds=5))
    assert res.objective == pytest.approx(max(h for _, h in res.trace), rel=1e-9)
    assert res.meta["seed_sizes"]


def test_fast_greedy_camouflage_degrades_accuracy_by_little():
    # density 0.2 at contract-like ratios: each hijacked account carries
    # n_objects * density = 40 fraud edges
    scores = {}
    for camo in (0.0, 0.2):
        base, _ = gen_hyperbolic(2000, 1000, power_exponent=0.5, density_target=0.6,
                                 rng_seed=42, block_shape=(400, 300),
                                 noise_avg_degree=2.0, timestamps=True, ratings=True)
        cfg = InjectionConfig(n_fraudsters=200, n_objects=200, ratings_per_object=40,
                              camouflage_ratio=camo, rng_seed=9)
        g, truth = inject(base, cfg)
        res = fast_greedy(g, DetectorConfig(cap_exponent=None))
        scores[camo] = f_measure(res.users, truth.fraud_users)[2]
    assert scores[0.2] >= scores[0.0] - 0.1
    assert scores[0.2] >= 0.8


def test_fast_greedy_neutral_override_changes_rating_tables(make_graph):
    # the neutral set is part of the graph's scale, fixed when the graph is built
    plain = make_graph(n_users=30, n_objects=20, n_events=250, seed=55)
    override = make_graph(n_users=30, n_objects=20, n_events=250, seed=55,
                          scale=RatingScale.from_range(1, 5, 1, neutral=(2.0, 3.0)))
    contexts = [SignalContext(g, DetectorConfig())
                for g in (plain, override)]
    assert contexts[0].category_values.tolist() == [1.0, 2.0, 4.0, 5.0]
    assert contexts[1].category_values.tolist() == [1.0, 4.0, 5.0]
    assert contexts[1].sink_cat_counts.sum() < contexts[0].sink_cat_counts.sum()
    fast_greedy(override, DetectorConfig(num_seeds=2))
    assert override.scale.neutral == frozenset({2.0, 3.0})


def test_rated_graph_without_a_scale_runs_without_kappa():
    rng = np.random.default_rng(9)
    n = 400
    us, vs = rng.integers(0, 40, n), rng.integers(0, 15, n)
    ts, rats = rng.integers(0, 30 * 86400, n), rng.integers(1, 6, n).astype(np.float64)
    ids = [f"u{i}" for i in range(40)], [f"v{j}" for j in range(15)]
    inferred = BipartiteGraph(*ids, us, vs, ts, rats)
    declared = BipartiteGraph(*ids, us, vs, ts, rats, scale=RatingScale(np.unique(rats)))
    config = DetectorConfig(signals=("alpha", "phi"), num_seeds=3)
    got, want = fast_greedy(inferred, config), fast_greedy(declared, config)
    assert got.users == want.users
    assert got.sink_scores.tobytes() == want.sink_scores.tobytes()


def test_detector_config_rejects_a_fractional_num_seeds():
    with pytest.raises(DataError, match=r"num_seeds\) must be an integer, got 2\.5"):
        DetectorConfig(num_seeds=2.5)


def test_top_objects_rejects_a_negative_count(make_graph):
    g = make_graph(n_users=30, n_objects=20, n_events=250, seed=55)
    res = fast_greedy(g, DetectorConfig(num_seeds=2))
    assert [oid for oid, _ in res.top_objects(g, 3)] == [oid for oid, _ in res.top_objects(g)[:3]]
    with pytest.raises(DataError, match="non-negative, got -3"):
        res.top_objects(g, -3)


def test_fast_greedy_leaves_graph_unchanged(make_graph):
    g = make_graph(n_users=30, n_objects=20, n_events=250, seed=55)
    scale = g.scale
    before = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(g).items()}
    for signals in (("alpha",), None):
        fast_greedy(g, DetectorConfig(num_seeds=2, signals=signals))
    assert g.scale is scale and scale.neutral == frozenset({3.0})
    assert vars(g).keys() == before.keys()
    for key, value in vars(g).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == before[key].tobytes(), key
        else:
            assert value is before[key], key


def test_seeds_do_not_depend_on_other_contexts_built_on_the_graph():
    alpha = DetectorConfig(signals=("alpha",), num_seeds=5)
    fresh, _ = bench_graph(2000, seed=1)
    expected = fast_greedy(fresh, alpha).meta["seed_sizes"]
    g, _ = bench_graph(2000, seed=1)
    SignalContext(g, alpha)
    SignalContext(g, DetectorConfig())  # phi: non-unit sigma
    assert fast_greedy(g, alpha).meta["seed_sizes"] == expected


def test_greedy_shaving_isolated_seed_user_is_degenerate():
    g = BipartiteGraph(["u0", "u1", "zz"], ["v0"], [0, 1], [0, 0], None, None)
    with pytest.raises(DataError, match="degenerate seed"):
        shave(g, [g.user_ids.index("zz")])


@pytest.mark.parametrize("case", ["fractional", "negative", "past_the_end"])
def test_bad_seed_indices_are_data_errors(case):
    g = bench_graph(20_000, seed=1)[0]
    seed_idx, message = {"fractional": ([0.7, 1.2], "must be integers"),
                         "negative": ([-1, 0, 1], r"must lie in \[0, "),
                         "past_the_end": ([g.n_users, 0], r"must lie in \[0, ")}[case]
    ctx = SignalContext(g, DetectorConfig())
    with pytest.raises(DataError, match=message):
        greedy_shaving(ctx, seed_idx)
    with pytest.raises(DataError, match=message):
        ContrastState(ctx, seed_idx)


def test_svd_seeds_returns_fewer_when_rank_limits():
    m = sp.coo_matrix((np.ones(3), ([0, 1, 2], [0, 1, 1])), shape=(6, 2)).tocsr()
    seeds, meta = svd_seeds(m, 5, cap_exponent=None)
    assert meta["n_vectors"] == 2
