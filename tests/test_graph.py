from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudsift import (BipartiteGraph, DataError, DetectorConfig, RatingScale, ingest,
                       read_delimited, write_delimited)
from fraudsift.contrast import ContrastState, SignalContext
from oracles import delimited_text, events, pair_counts, pair_events


def engagement(graph, users, obj, column_weights=None) -> float:
    """Weighted event count from ``users`` into ``obj``, read off counts_matrix."""
    rows = [graph.user_index(u) for u in users]
    col = graph.object_index(obj)
    return float(graph.counts_matrix(column_weights)[rows, col].sum())


def test_ingest_counts_nodes_and_edges():
    g = ingest([("u1", "v1"), ("u2", "v1")])
    assert g.n_users == 2
    assert g.n_objects == 1
    assert g.n_pairs == 2
    assert all(c == 1 for _, _, c in pair_counts(g))


def test_ingest_aggregates_multiplicity():
    g = ingest([("u1", "v1"), ("u1", "v1")])
    assert g.n_pairs == 1
    assert g.n_events == 2
    assert pair_counts(g) == [("u1", "v1", 2)]


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
    assert 4.0 in scale and scale.values.index(4.0) == 3
    half = RatingScale.from_range(0.5, 5.0, 0.5)
    assert len(half.values) == 10


def test_pair_timestamps_stored_sorted():
    g = ingest([("u1", "v1", 30), ("u1", "v1", 10), ("u1", "v1", 20)])
    assert g.event_time[pair_events(g, 0)].tolist() == [10, 20, 30]


def test_engagement_single_edge():
    g = ingest([("u1", "v1")])
    assert engagement(g, ["u1"], "v1") == 1.0


def test_engagement_empty_set_is_zero():
    g = ingest([("u1", "v1"), ("u2", "v2")])
    assert engagement(g, [], "v1") == 0.0
    assert engagement(g, [], "v2") == 0.0


def test_engagement_sums_multiplicities():
    g = ingest([("u1", "v1")] * 2 + [("u2", "v1")] * 3)
    assert engagement(g, ["u1", "u2"], "v1") == 5.0


def test_engagement_unknown_sink_errors():
    g = ingest([("u1", "v1")])
    with pytest.raises(DataError, match="unknown sink"):
        engagement(g, ["u1"], "nope")


def test_forward_reverse_index_consistency(make_graph):
    g = make_graph(n_users=30, n_objects=20, n_events=300, seed=3)
    fwd = collections.Counter(pair_counts(g))
    rev = collections.Counter(pair_counts(g, by_sink=True))
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
        fa = engagement(g, a, v)
        fb = engagement(g, b, v)
        assert engagement(g, a | b, v) == pytest.approx(fa + fb)
        assert fa <= engagement(g, users, v)


# -- restriction to a seed's edges, as a ContrastState holds it -----------------


def restricted(graph, users) -> ContrastState:
    ctx = SignalContext(graph, DetectorConfig(signals=("alpha",)))
    return ContrastState(ctx, [graph.user_index(u) for u in users])


def test_restrict_identity_and_degree():
    g = ingest([("u1", "v1"), ("u1", "v2"), ("u1", "v1"), ("u2", "v2")])
    assert restricted(g, g.user_ids).row_vals.sum() == g.n_events
    assert restricted(g, ["u1"]).row_vals.sum() == 3


def test_restrict_empty_seed_errors():
    g = ingest([("u1", "v1")])
    with pytest.raises(DataError, match="empty seed"):
        restricted(g, [])


def test_restrict_matches_linear_scan_oracle(make_graph):
    g = make_graph(n_users=100, n_objects=100, n_events=1500, seed=11,
                   timestamps=False, ratings=False)
    picked = [f"u{i}" for i in range(0, 100, 10)]
    state = restricted(g, picked)
    # oracle: filter the full pair list by source id
    wanted = set(picked)
    expected = sum(c for u, _, c in pair_counts(g) if u in wanted)
    assert state.row_vals.sum() == expected
    assert set(g.pair_src[state.row_pids].tolist()) <= {g.user_index(u) for u in picked}


def test_parse_delimited_header_and_bad_lines(tmp_path):
    lines = [
        "user,object,timestamp,rating",
        "u1,v1,100,4.0",
        "u2,v1,abc,4.0",
        "u3,v1,200,3.5",
        "only_one_field",
    ]
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    diags = []
    g = read_delimited(path, diagnostics=diags)
    assert g.n_events == 2
    assert diags == ["line 3: non-numeric timestamp 'abc'", "line 5: wrong arity 1"]


def test_read_delimited_diagnostics_name_the_file_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("user,object,timestamp\nu1,v1,10\nu2,v1,12.5\n\nu3,v1,x\n",
                    encoding="utf-8")
    diags = []
    g = read_delimited(path, diagnostics=diags)
    assert g.n_events == 1
    assert diags == ["line 3: timestamp 12.5 is not integer seconds",
                     "line 5: non-numeric timestamp 'x'"]


def test_delimited_round_trip(tmp_path, make_graph):
    g = make_graph(n_users=15, n_objects=10, n_events=120, seed=5)
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    g2 = read_delimited(path)
    assert g2.n_events == g.n_events
    assert collections.Counter(pair_counts(g2)) == collections.Counter(pair_counts(g))
    assert sorted(events(g)) == sorted(events(g2))


@pytest.mark.parametrize("timestamps", [True, False])
@pytest.mark.parametrize("scale", [None, RatingScale.from_range(1, 5, 1),
                                   RatingScale([-0.0, 0.5, 2.25, 1e-7, 123456789.0])])
def test_write_delimited_matches_record_writer(tmp_path, make_graph, timestamps, scale):
    g = make_graph(n_users=15, n_objects=10, n_events=200, seed=6, timestamps=timestamps,
                   ratings=scale is not None, scale=scale)
    path = tmp_path / "events.csv"
    if g.has_ratings and not g.has_timestamps:
        # the reader would take the rating column for timestamps
        with pytest.raises(DataError, match="ratings without timestamps"):
            write_delimited(g, path)
        assert not path.exists()
        return
    write_delimited(g, path)
    assert path.read_bytes() == delimited_text(g).encode("utf-8")


def test_rating_survives_write_and_read(tmp_path):
    # six significant digits would write 1.23457: off the scale, or silently changed
    g = ingest([("u0", "o0", 1, 1.2345678), ("u1", "o0", 2, 4.0), ("u1", "o1", 3, 4.5)])
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    assert path.read_text().splitlines() == ["u0,o0,1,1.2345678", "u1,o0,2,4",
                                             "u1,o1,3,4.5"]
    for scale in (None, g.scale):
        back = read_delimited(path, scale=scale)
        assert back.event_rating.tobytes() == g.event_rating.tobytes()
        assert back.scale.values == g.scale.values


def test_write_delimited_refuses_priors(tmp_path):
    # the graph keeps only per-sink prior means, so the column cannot be written back
    g = ingest([("u1", "v1", None, None, 2.0), ("u2", "v2", None, None, 0.5)])
    assert g.sink_prior.tolist() == [2.0, 0.5]
    path = tmp_path / "events.csv"
    with pytest.raises(DataError, match="priors"):
        write_delimited(g, path)
    assert not path.exists()


def test_prior_column_hook():
    g = ingest([("u1", "v1", None, None, 2.0), ("u2", "v1", None, None, 4.0),
                ("u1", "v2", None, None, 1.0)])
    assert g.sink_prior is not None
    assert g.sink_prior[g.object_index("v1")] == pytest.approx(3.0)
    assert g.sink_prior[g.object_index("v2")] == pytest.approx(1.0)


def test_engagement_of_full_user_set_is_weighted_indegree(make_graph):
    g = make_graph(n_users=20, n_objects=12, n_events=150, seed=9)
    weights = np.linspace(1.0, 2.0, 12)
    indegree = weights * g.sink_event_counts()
    for vi, v in enumerate(g.object_ids):
        assert engagement(g, g.user_ids, v, weights) == pytest.approx(indegree[vi])


def test_counts_matrix_column_weights_scale_pair_counts(make_graph):
    g = make_graph(n_users=20, n_objects=12, n_events=150, seed=9)
    weights = np.linspace(1.0, 2.0, 12)
    plain = g.counts_matrix()
    weighted = g.counts_matrix(column_weights=weights)
    assert plain.data.tobytes() == g.pair_count.tobytes()
    assert weighted.data.tobytes() == (g.pair_count * weights[g.pair_dst]).tobytes()
    assert np.array_equal(weighted.toarray(), plain.toarray() * weights)


def read_both_ways(tmp_path, rows):
    """Diagnostics from ingest on the records and from read_delimited on the
    same rows written as CSV, after both accept the rows' valid part."""
    record_diags: list[str] = []
    csv_diags: list[str] = []
    g_rec = ingest(rows, diagnostics=record_diags)
    path = tmp_path / "events.csv"
    path.write_text("".join(",".join(str(f) for f in r) + "\n" for r in rows),
                    encoding="utf-8")
    g_csv = read_delimited(path, diagnostics=csv_diags)
    assert pair_counts(g_rec) == pair_counts(g_csv)
    assert g_rec.event_time.tobytes() == g_csv.event_time.tobytes()
    # without a header, record n is line n
    assert csv_diags == [d.replace("record", "line", 1) for d in record_diags]
    return record_diags


def test_fractional_timestamp_rejected_by_both_entry_points(tmp_path):
    rows = [("u1", "v1", 10), ("u2", "v1", 12.5), ("u3", "v1", 14)]
    diags = read_both_ways(tmp_path, rows)
    assert diags == ["record 2: timestamp 12.5 is not integer seconds"]


@pytest.mark.parametrize("entry", ["records", "csv"])
def test_timestamp_beyond_float64_integers_rejected(tmp_path, entry):
    # 2^53 + 1 has no float64 of its own: it used to be stored as 2^53
    rows = [("u1", "v1", 2**53 - 1), ("u2", "v1", 2**53 + 1), ("u3", "v1", 2**53)]
    diags = []
    if entry == "records":
        g = ingest(rows, diagnostics=diags)
        unit = "record"
    else:
        path = tmp_path / "events.csv"
        path.write_text("".join(f"{u},{v},{t}\n" for u, v, t in rows), encoding="utf-8")
        g = read_delimited(path, diagnostics=diags)
        unit = "line"
    assert g.event_time.tolist() == [2**53 - 1]
    assert diags == [f"{unit} 2: timestamp 9007199254740993 is not below 2^53 seconds",
                     f"{unit} 3: timestamp 9007199254740992 is not below 2^53 seconds"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["rating", "prior"])
def test_non_finite_rating_or_prior_rejected_by_both_entry_points(tmp_path, value, column):
    good = [("u1", "v1", 10, 4.0, 1.0), ("w1", "v1", 12, 2.0, 2.0)]
    bad = ["u2", "v1", 11, 4.0, 1.0]
    bad[3 if column == "rating" else 4] = value
    rows = [good[0], tuple(bad), good[1]]
    diags = read_both_ways(tmp_path, rows)
    assert len(diags) == 1 and diags[0].startswith("record 2:")
    assert column in diags[0]

