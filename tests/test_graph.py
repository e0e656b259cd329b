from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudsift import (BipartiteGraph, DataError, EdgeRecord, RatingScale,
                       ingest, parse_delimited, read_delimited, write_delimited)
from oracles import delimited_text


def test_ingest_counts_nodes_and_edges():
    g = ingest([("u1", "v1"), ("u2", "v1")])
    assert g.n_users == 2
    assert g.n_objects == 1
    assert g.n_pairs == 2
    assert all(c == 1 for _, _, c in g.pairs_by_source())


def test_ingest_aggregates_multiplicity():
    g = ingest([("u1", "v1"), ("u1", "v1")])
    assert g.n_pairs == 1
    assert g.n_events == 2
    assert list(g.pairs_by_source()) == [("u1", "v1", 2)]


def test_ingest_empty_stream_errors():
    with pytest.raises(DataError, match="empty input"):
        ingest([])


def test_ingest_rejects_malformed_records_with_position():
    diags = []
    g = ingest([("u1", "v1"), ("u2",), ("u3", "v1", "notatime"), ("u4", "v1")],
               diagnostics=diags)
    assert g.n_events == 2
    assert len(diags) == 2
    assert "record 2" in diags[0]
    assert "record 3" in diags[1] and "timestamp" in diags[1]


def test_ingest_all_records_malformed_is_empty_input():
    with pytest.raises(DataError, match="empty input"):
        ingest([("u1",), ("", "v1")], diagnostics=[])


def test_ingest_rejects_out_of_scale_ratings():
    scale = RatingScale.from_range(1, 5, 1)
    diags = []
    g = ingest([("u1", "v1", 10, 3.0), ("u2", "v1", 11, 7.0), ("u3", "v1", 12, 5.0)],
               scale=scale, diagnostics=diags)
    assert g.n_events == 2
    assert len(diags) == 1 and "outside declared scale" in diags[0]


def test_ingest_mixed_timestamp_presence_errors():
    with pytest.raises(DataError, match="all records or on none"):
        ingest([("u1", "v1", 5), ("u2", "v1")])


def test_rating_scale_defaults_middle_neutral():
    scale = RatingScale.from_range(1, 5, 1)
    assert scale.neutral == frozenset({3.0})
    assert 2.5 not in scale
    assert scale.category(4.0) == 3
    half = RatingScale.from_range(0.5, 5.0, 0.5)
    assert len(half) == 10


def test_pair_timestamps_stored_sorted():
    g = ingest([("u1", "v1", 30), ("u1", "v1", 10), ("u1", "v1", 20)])
    assert g.pair_timestamps(0).tolist() == [10, 20, 30]


def test_engagement_single_edge():
    g = ingest([("u1", "v1")])
    assert g.engagement(["u1"], "v1") == 1.0


def test_engagement_empty_set_is_zero():
    g = ingest([("u1", "v1"), ("u2", "v2")])
    assert g.engagement([], "v1") == 0.0
    assert g.engagement([], "v2") == 0.0


def test_engagement_sums_multiplicities():
    g = ingest([("u1", "v1")] * 2 + [("u2", "v1")] * 3)
    assert g.engagement(["u1", "u2"], "v1") == 5.0


def test_engagement_unknown_sink_errors():
    g = ingest([("u1", "v1")])
    with pytest.raises(DataError, match="unknown sink"):
        g.engagement(["u1"], "nope")


def test_forward_reverse_index_consistency(make_graph):
    g = make_graph(n_users=30, n_objects=20, n_events=300, seed=3)
    fwd = collections.Counter(g.pairs_by_source())
    rev = collections.Counter(g.pairs_by_sink())
    assert fwd == rev
    assert sum(c for _, _, c in fwd.elements()) >= g.n_pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_engagement_additive_and_monotone(seed):
    rng = np.random.default_rng(seed)
    us = rng.integers(0, 12, 60)
    vs = rng.integers(0, 8, 60)
    g = BipartiteGraph([f"u{i}" for i in range(12)], [f"o{j}" for j in range(8)],
                       us, vs, None, None)
    users = [f"u{i}" for i in range(12)]
    a = set(rng.choice(users, 4, replace=False))
    b = set(rng.choice(sorted(set(users) - a), 3, replace=False))
    for v in g.object_ids:
        fa = g.engagement(a, v)
        fb = g.engagement(b, v)
        assert g.engagement(a | b, v) == pytest.approx(fa + fb)
        assert fa <= g.engagement(users, v)


def test_restrict_identity_and_degree():
    g = ingest([("u1", "v1"), ("u1", "v2"), ("u1", "v1"), ("u2", "v2")])
    full = g.restrict(g.user_ids)
    assert full.n_edge_events == g.n_events
    one = g.restrict(["u1"])
    assert one.n_edge_events == 3


def test_restrict_empty_seed_errors():
    g = ingest([("u1", "v1")])
    with pytest.raises(DataError, match="empty seed"):
        g.restrict([])


def test_restrict_matches_linear_scan_oracle(make_graph):
    g = make_graph(n_users=100, n_objects=100, n_events=1500, seed=11,
                   timestamps=False, ratings=False)
    picked = [f"u{i}" for i in range(0, 100, 10)]
    view = g.restrict(picked)
    # oracle: filter the full event list by source id
    wanted = set(picked)
    expected = sum(c for u, _, c in g.pairs_by_source() if u in wanted)
    assert view.n_edge_events == expected
    assert set(np.asarray(g.pair_src)[view.pair_ids].tolist()) <= {
        g.user_index(u) for u in picked}


def test_sigma_validation():
    g = ingest([("u1", "v1")])
    with pytest.raises(DataError):
        g.set_sigma(np.array([0.0]))
    with pytest.raises(DataError):
        g.set_sigma(np.ones(3))
    g.set_sigma(np.array([2.0]))
    assert g.engagement(["u1"], "v1") == 2.0


def test_parse_delimited_header_and_bad_lines():
    lines = [
        "user,object,timestamp,rating",
        "u1,v1,100,4.0",
        "u2,v1,abc,4.0",
        "u3,v1,200,3.5",
        "only_one_field",
    ]
    records, diags = parse_delimited(lines)
    assert len(records) == 2
    assert len(diags) == 2
    assert "line 3" in diags[0]


def test_delimited_round_trip(tmp_path, make_graph):
    g = make_graph(n_users=15, n_objects=10, n_events=120, seed=5)
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    g2 = read_delimited(path)
    assert g2.n_events == g.n_events
    assert collections.Counter(g2.pairs_by_source()) == collections.Counter(g.pairs_by_source())
    a = sorted((r.user, r.object, r.timestamp, r.rating) for r in g.events())
    b = sorted((r.user, r.object, r.timestamp, r.rating) for r in g2.events())
    assert a == b


@pytest.mark.parametrize("timestamps", [True, False])
@pytest.mark.parametrize("scale", [None, RatingScale.from_range(1, 5, 1),
                                   RatingScale([-0.0, 0.5, 2.25, 1e-7, 123456789.0])])
def test_write_delimited_matches_record_writer(tmp_path, make_graph, timestamps, scale):
    g = make_graph(n_users=15, n_objects=10, n_events=200, seed=6, timestamps=timestamps,
                   ratings=scale is not None, scale=scale)
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    assert path.read_bytes() == delimited_text(g).encode("utf-8")


def test_prior_column_hook():
    g = ingest([EdgeRecord("u1", "v1", prior=2.0), EdgeRecord("u2", "v1", prior=4.0),
                EdgeRecord("u1", "v2", prior=1.0)])
    assert g.sink_prior is not None
    assert g.sink_prior[g.object_index("v1")] == pytest.approx(3.0)
    assert g.sink_prior[g.object_index("v2")] == pytest.approx(1.0)


def test_engagement_of_full_user_set_is_weighted_indegree(make_graph):
    g = make_graph(n_users=20, n_objects=12, n_events=150, seed=9)
    g.set_sigma(np.linspace(1.0, 2.0, 12))
    for v in g.object_ids:
        assert g.engagement(g.user_ids, v) == pytest.approx(g.total_engagement(v))
