from __future__ import annotations

import collections
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudsift import (BipartiteGraph, DataError, DetectorConfig, RatingScale, bench_graph,
                       ingest, read_delimited, write_delimited)
from fraudsift import graph as graph_module
from fraudsift.contrast import ContrastState, SignalContext
from fraudsift.graph import MAX_SCALE_VALUES
from oracles import (delimited_text, events, lexsort_build, pair_counts, pair_events,
                     read_delimited_per_line)


def engagement(graph, users, obj, column_weights=None) -> float:
    """Weighted event count from ``users`` into ``obj``, read off counts_matrix."""
    rows = [graph.user_ids.index(u) for u in users]
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


def test_rated_graph_built_without_a_scale_infers_one():
    rats = [4.0, 2.0, 4.0, 5.0]
    g = BipartiteGraph(["u0", "u1"], ["v0", "v1"], [0, 1, 0, 1], [0, 0, 1, 1],
                       [10, 20, 30, 40], rats)
    assert g.scale.values == (2.0, 4.0, 5.0) and g.scale.neutral == frozenset({4.0})
    assert BipartiteGraph(["u0"], ["v0"], [0], [0], None, None).scale is None


def test_rating_range_keeps_its_end_value():
    assert RatingScale.from_range(0.5, 2.0, 0.5).values == (0.5, 1.0, 1.5, 2.0)
    assert RatingScale.from_range(3, 3, 1).values == (3.0,)
    # a span within rounding of a whole number of steps
    assert len(RatingScale.from_range(0.1, 0.3, 0.1).values) == 3
    assert len(RatingScale.from_range(1, 1000, 1).values) == MAX_SCALE_VALUES


@pytest.mark.parametrize("lo, hi, step, message", [
    (1, 5, float("nan"), "not finite"), (float("-inf"), 5, 1, "not finite"),
    (1, 5, 0, "step must be positive"), (1, 5, -0.5, "step must be positive"),
    (5, 1, 1, "ends below its start"), (1, 5, 0.3, "not a whole number of steps"),
    (1, 5, 1e-12, "more than 1000 values"), (0, 1000, 1, "more than 1000 values"),
    (-1e308, 1e308, 1e-300, "more than 1000 values"),
])
def test_rating_range_rejects_bad_ranges(lo, hi, step, message):
    with pytest.raises(DataError, match=message):
        RatingScale.from_range(lo, hi, step)


@pytest.mark.parametrize("values, neutral, message", [
    ([1, float("nan"), 3], None, "must be finite"), ([1, 3, float("inf")], None, "must be finite"),
    ([float("-inf")], None, "must be finite"), ([1, 2, 3], [float("nan")], "not on the scale"),
    ([1, 2, 3, 4, 5], [], "at least one neutral score"),
])
def test_rating_scale_rejects_non_finite_values(values, neutral, message):
    with pytest.raises(DataError, match=message):
        RatingScale(values, neutral=neutral)


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
    return ContrastState(ctx, [graph.user_ids.index(u) for u in users])


def test_restrict_identity_and_degree():
    g = ingest([("u1", "v1"), ("u1", "v2"), ("u1", "v1"), ("u2", "v2")])
    assert restricted(g, g.user_ids).counts.data.sum() == g.n_events
    assert restricted(g, ["u1"]).counts.data.sum() == 3


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
    assert state.counts.data.sum() == expected
    # the block holds exactly the picked users' pairs, in (source, sink) order
    users = np.repeat(state.seed_idx[state.rows], np.diff(state.counts.indptr))
    block = [(g.user_ids[u], g.object_ids[v], int(c))
             for u, v, c in zip(users, state.domain[state.counts.indices], state.counts.data)]
    assert block == [t for t in pair_counts(g) if t[0] in wanted]


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
@pytest.mark.parametrize("column", ["rating"])
def test_non_finite_rating_or_prior_rejected_by_both_entry_points(tmp_path, value, column):
    rows = [("u1", "v1", 10, 4.0), ("u2", "v1", 11, value), ("w1", "v1", 12, 2.0)]
    diags = read_both_ways(tmp_path, rows)
    assert len(diags) == 1 and diags[0].startswith("record 2:")
    assert column in diags[0]


def test_fifth_field_is_wrong_arity_on_both_entry_points(tmp_path):
    rows = [("u1", "v1", 10, 4.0), ("u2", "v1", 11, 4.0, 2.0), ("w1", "v1", 12, 2.0)]
    diags = read_both_ways(tmp_path, rows)
    assert diags == ["record 2: wrong arity 5"]



# -- the columnar reader against the per-line reference ---------------------------


GRAPH_ARRAYS = ("pair_src", "pair_dst", "pair_event_indptr", "pair_count", "event_time",
                "event_rating", "src_pair_indptr", "sink_event_time", "sink_event_pair",
                "sink_event_indptr")


def assert_same_graph(got, want):
    assert got.user_ids == want.user_ids
    assert got.object_ids == want.object_ids
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.scale is None) == (want.scale is None)
    if got.scale is not None:
        assert got.scale.values == want.scale.values
        assert got.scale.neutral == want.scale.neutral


def read_outcome(reader, path, scale):
    """(graph or None, DataError message or None, diagnostics) of one reader."""
    diags: list[str] = []
    try:
        return reader(path, scale=scale, diagnostics=diags), None, diags
    except DataError as exc:
        return None, str(exc), diags


def assert_reads_like_per_line(path, scale=None, chunk_bytes=(1 << 20, 64, 7)):
    """read_delimited at each chunk size gives the per-line reference's ids,
    arrays, scale and diagnostics, or its DataError."""
    want = read_outcome(read_delimited_per_line, path, scale)
    for chunk in chunk_bytes:
        with mock.patch.object(graph_module, "CHUNK_BYTES", chunk):
            got = read_outcome(read_delimited, path, scale)
        assert got[1:] == want[1:], chunk
        if want[0] is not None:
            assert_same_graph(got[0], want[0])
    return want


@pytest.mark.parametrize("text", [
    # mixed arity, and a header on line 1 or a header-looking line 2
    "u1,v1,10\nu2,v1\nu3,v2,12\n",
    "u1,v1\nu2,v1,5,4\n",
    "user,object,timestamp\nu1,v1,10\nu2,v2,11\n",
    "USER , Object\nu1,v1\n",
    "\nuser,object,timestamp\nu1,v1,10\n",
    "u1,v1,10\nuser,object,timestamp\n",
    "user,object\n",
    # tabs with commas in ids, blank lines, CRLF and lone CR
    "u,1\tv,1\t10\nu,2\tv1\t11\n",
    "\n\n  \nu1\tv1\t5\n\t\nu2,x\tv1\t6\n",
    "u1,v1,10\r\nu2,v1,11\r\n\r\nu3,v2,12",
    "u1,v1,10\ru2,v1,11\r\ru3,v2,12\r",
    "u1,v1,10\r\n\ru2,v1,11\n\r\nu3,v2,12\r\n",
    # padded fields, non-ASCII ids, U+00A0 and U+FEFF
    " u1 , v1 ,10\nu2,v1, 11 \n\tu3,v1,12\n",
    "üser,v1,10\nu2,vé,11\nüser,vé,12\n",
    "\u00a0u1,v1,10\nu1\u00a0,v1,11\nu\u00a0,v1,12\n\u00a0\n",
    "\ufeffu1,v1,10\nu1,v1\ufeff,11\nu1,v1,12\n",
    "u1,v1,10\n\x1cu2,v1,11\nu3\x0b,v1,12\nu4,v\x001,13\n",
    # timestamps
    "u1,v1,+5\nu2,v1,1_000\nu3,v1,1e3\nu4,v1,12.0\nu5,v1,-1\n",
    f"u1,v1,{2**53 - 1}\nu2,v1,{2**53}\nu3,v1,{2**64}\nu4,v1,-0\nu5,v1,00012\n",
    "u1,v1,0x10\nu2,v1,\nu3,v1,1__0\nu4,v1,nan\nu5,v1,inf\nu6,v1,7\n",
    # ratings
    "u1,v1,1,nan\nu2,v1,2,inf\nu3,v1,3,-inf\nu4,v1,4,4\nu5,v1,5,1e400\n",
    "u1,v1,1,4.5\nu2,v1,2,7\nu3,v1,3,-0\nu4,v1,4,0.0\nu5,v1,5,x\nu6,v1,6,1_0\n",
    # empty fields, wrong arity, nothing valid
    ",v1,1\nu1,,2\nu2,v2,3,\nu3,v3,4,5,6\nu4\n,,,\nu5,v5,5,3\n",
    "only\n",
    "",
    "\n \n",
    # lines that are not UTF-8; the delimiter comes from the first such line as
    # from any non-blank line
    b"u1,o1,10\nu\xff2,o1,11\nu3,o2,12\n",
    b"\xff\tx\nu,1\tv1\n",
    b"user,\xff\nu1,v1\n",
    # a truncated sequence, an encoded surrogate, an overlong form, a stray continuation
    b"u1,v1\nu2,v\xe2\x80\nu\xed\xa0\x80,v1\nu\xc0\xaf,v1\n\x80,v1\nu3,v1\n",
    b"u1,v1\r\xff,v\r\nu\xfe,v1",
])
@pytest.mark.parametrize("scale", [None, RatingScale.from_range(1, 5, 1)])
def test_reader_matches_per_line_reference(tmp_path, text, scale):
    path = tmp_path / "events.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert_reads_like_per_line(path, scale)


def test_bad_lines_on_both_sides_of_a_chunk_border(tmp_path):
    good = [f"u{i % 7},v{i % 5},{100 + i},{1 + i % 5}" for i in range(40)]
    bad = {9: "u,v,x,3", 10: "u9,v9,10,9", 11: "", 19: "u1", 20: "ü,v1,3,3",
           21: "u1,v1,-4,2", 29: "u1 ,v1,1,1"}
    lines = [bad.get(i, line) for i, line in enumerate(good)]
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line_chars = len(good[0]) + 1
    for chunk in range(1, 4 * line_chars):
        _, _, diags = assert_reads_like_per_line(path, RatingScale.from_range(1, 5, 1),
                                                 chunk_bytes=(chunk,))
    assert [d.split(":")[0] for d in diags] == ["line 10", "line 11", "line 20", "line 22"]


def test_a_line_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"u1,o1,10\nu\xff2,o1,11\nu3,o2,12\n")
    diags = []
    g = read_delimited(path, diagnostics=diags)
    assert g.user_ids == ["u1", "u3"] and g.event_time.tolist() == [10, 12]
    assert diags == ["line 2: not valid UTF-8"]
    path.write_bytes(b"\xff,o1,10\nu\xfe,o1,11\n")
    diags.clear()
    with pytest.raises(DataError, match="empty input"):
        read_delimited(path, diagnostics=diags)
    assert diags == ["line 1: not valid UTF-8", "line 2: not valid UTF-8"]


def test_wide_spaces_are_the_non_ascii_characters_strip_removes():
    spaces = {chr(c) for c in range(128, sys.maxunicode + 1) if chr(c).isspace()}
    assert set(graph_module._WIDE_SPACES) == spaces


@pytest.mark.parametrize("space", list(graph_module._WIDE_SPACES))
def test_fields_edged_with_a_non_ascii_space_read_like_the_reference(tmp_path, space):
    path = tmp_path / "events.csv"
    path.write_text(f"u1,v1,1\n{space}u2,v1,2\nu3{space},v1,3\nu4,{space}v1,4\n"
                    f"u5,v1{space},5\nu{space}6,v{space}1,6\n{space}\n", encoding="utf-8")
    assert_reads_like_per_line(path)


# lines the byte path reads, and lines next to them that it hands on
BORDER_LINES = [
    # ids wider than 8 bytes, mixed widths, and ids that differ in a trailing byte
    "wide_user_identifier_01,o1,5", "u1,wide_object_identifier_0001,6",
    "abcdefgh,abcdefghi,7", "abcdefghi,abcdefgh,8", "abcdefg,abcdefgh1,9",
    "abcdefgh1,abcdefgh2,10", "u,u1,11", "u1,u,12", "üser12,ōbj7,13",
    # timestamps the byte path reads, and ones it leaves to the per-line path
    "u2,o2,011", "u3,o3,+12", "u4,o4,0000000000000012", "u5,o5,00000000000000012",
    f"u6,o6,{2**53 - 1}", f"u7,o7,{2**53}", "u8,o8,9999999999999999", "u9,o9,0",
]


def test_byte_path_cases_on_both_sides_of_a_chunk_border(tmp_path):
    filler = [f"u{i % 5},o{i % 3},{100 + i}" for i in range(len(BORDER_LINES))]
    lines = [line for pair in zip(filler, BORDER_LINES) for line in pair]
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    longest = max(map(len, lines)) + 1
    for chunk in range(1, 3 * longest):
        _, _, diags = assert_reads_like_per_line(path, chunk_bytes=(chunk,))
    assert diags == [f"line {2 * (BORDER_LINES.index(line) + 1)}: timestamp {value} is not "
                     "below 2^53 seconds" for line, value in
                     ((f"u7,o7,{2**53}", 2**53), ("u8,o8,9999999999999999", 9999999999999999))]


def test_wide_ids_that_share_a_sort_hash_read_like_the_reference(tmp_path):
    # with the multiplier 0 the hash is the last 8-byte word, which these ids share
    ids = ["aaaaaaaa_suffix1", "bbbbbbbb_suffix1", "cccccccc_suffix1"]
    path = tmp_path / "events.csv"
    path.write_text("".join(f"{ids[i % 3]},{ids[i % 2]},{i}\n" for i in range(20)),
                    encoding="utf-8")
    with mock.patch.object(graph_module, "_WORD_MIX", np.uint64(0)):
        assert_reads_like_per_line(path)


def test_one_long_id_does_not_widen_the_keys_of_the_short_ones(tmp_path):
    long_id = "x" * (1 << 16)
    lines = [f"u{i % 50},o{i % 7},{i}" for i in range(2000)]
    lines.insert(1000, f"{long_id},o1,5")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        g = read_delimited(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # keys as wide as the long id on every line would take 2001 * 64 KB
    assert g.user_ids[50] == long_id and peak < 8 << 20
    assert_reads_like_per_line(path)


FIELD_TEXT = st.sampled_from([
    "u1", "u2", "v1", "v2", "a,b", " u1", "u1 ", "ü", "\u00a0", "\ufeffu", "user", "Time",
    "üser12", "ōbj7", "u\u3000", "\u2000u", "u\u205fv", "\u0085ü", "ü\u2028",
    "wide_identifier_1", "wide_identifier_2", "abcdefgh", "abcdefghi",
    "", "5", "+5", "1_000", "1e3", "12.0", "-1", "-0", str(2**53 - 1), str(2**53), "x",
    "3", "4.5", "nan", "inf", "7", "1", "2", "011", "0000000000000012"])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(FIELD_TEXT, min_size=0, max_size=5), min_size=0, max_size=12),
       delim=st.sampled_from([",", "\t"]),
       newlines=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
       declared=st.booleans(), chunk=st.integers(1, 40))
def test_reader_property_matches_per_line_reference(tmp_path_factory, rows, delim, newlines,
                                                    declared, chunk):
    text = "".join(delim.join(r) + newlines[i % len(newlines)] for i, r in enumerate(rows))
    path = tmp_path_factory.mktemp("reader") / "events.csv"
    path.write_bytes(text.encode("utf-8"))
    scale = RatingScale.from_range(1, 5, 1) if declared else None
    assert_reads_like_per_line(path, scale, chunk_bytes=(1 << 20, chunk))


@pytest.mark.parametrize("ends", [["\r"], ["\r\n"], ["\r", "\r\n", "\n", "\r"]])
def test_lines_ending_in_cr_are_read_in_chunks(tmp_path, monkeypatch, ends):
    lines = [f"u{i % 7},v{i % 5},{100 + i},{1 + i % 5}" for i in range(30)]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines)).encode()
    path, lf_path = tmp_path / "events.csv", tmp_path / "lf.csv"
    path.write_bytes(text)
    lf_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = read_delimited(lf_path)
    feed = graph_module._DelimitedReader.feed
    fed: list[bytes] = []
    monkeypatch.setattr(graph_module._DelimitedReader, "feed",
                        lambda self, data: fed.append(data) or feed(self, data))
    # every chunk size up to two lines puts a border inside each CRLF somewhere
    for chunk in range(1, 2 * len(lines[0]) + 4):
        fed.clear()
        monkeypatch.setattr(graph_module, "CHUNK_BYTES", chunk)
        assert_same_graph(read_delimited(path), want)
        assert len(fed) > 1 and b"".join(fed) == text
        # each chunk ends at a line end, and no CRLF is split between two
        for data, after in zip(fed, fed[1:]):
            assert data.endswith((b"\n", b"\r")), chunk
            assert not (data.endswith(b"\r") and after.startswith(b"\n")), chunk
    assert_reads_like_per_line(path, chunk_bytes=(5, 64))


@pytest.mark.parametrize("timestamps, ratings", [(False, False), (True, False), (True, True)])
def test_write_then_read_gives_an_equal_graph(tmp_path, make_graph, timestamps, ratings):
    g = make_graph(n_users=30, n_objects=20, n_events=400, seed=8, timestamps=timestamps,
                   ratings=ratings)
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    back = read_delimited(path, scale=g.scale)
    # ids come back in order of first appearance in the pair-major file
    assert_same_graph(back, read_delimited_per_line(path, scale=g.scale))
    assert sorted(events(back)) == sorted(events(g))
    assert collections.Counter(pair_counts(back)) == collections.Counter(pair_counts(g))
    if ratings:
        assert back.scale.values == g.scale.values


def count_coerce_calls(monkeypatch) -> list:
    calls = []
    original = graph_module._coerce_record

    def counted(rec):
        calls.append(rec)
        return original(rec)

    monkeypatch.setattr(graph_module, "_coerce_record", counted)
    return calls


def test_clean_csv_takes_the_columnar_path(tmp_path, monkeypatch):
    g, _ = bench_graph(20_000, seed=1)
    path = tmp_path / "bench.csv"
    write_delimited(g, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    calls = count_coerce_calls(monkeypatch)
    clean = read_delimited(path, scale=g.scale)
    assert calls == []
    assert_same_graph(clean, read_delimited_per_line(path, scale=g.scale))

    # non-ASCII ids take the byte path too
    wide = tmp_path / "wide.csv"
    write_delimited(BipartiteGraph([f"üser{u}" for u in g.user_ids],
                                   [f"ōbj{o}" for o in g.object_ids], *g.event_arrays(),
                                   scale=g.scale), wide)
    got = read_delimited(wide, scale=g.scale)
    assert calls == []
    assert_same_graph(got, read_delimited_per_line(wide, scale=g.scale))
    assert got.user_ids[:2] == ["üser" + u for u in clean.user_ids[:2]]

    bad = ["u0,o0,soon,3\n", "u0,o0,1,2,3\n", "u0,o0,1,99\n", "u0,o0,-5,3\n", "x\n"]
    at = np.linspace(0, len(lines), len(bad)).astype(int)
    for k in range(1, len(bad) + 1):
        mixed = list(lines)
        for pos, line in sorted(zip(at[:k], bad[:k]), reverse=True):
            mixed.insert(pos, line)
        path.write_text("".join(mixed), encoding="utf-8")
        calls.clear()
        diags = []
        got = read_delimited(path, scale=g.scale, diagnostics=diags)
        assert len(calls) == k and len(diags) == k
        assert_same_graph(got, clean)


# -- the build against two lexsorts ---------------------------------------------


def assert_build_matches_lexsort(us, vs, ts, rs, n_users, n_objects):
    g = BipartiteGraph([f"u{i}" for i in range(n_users)], [f"o{j}" for j in range(n_objects)],
                       us, vs, ts, rs)
    want = lexsort_build(us, vs, ts, rs, n_users, n_objects)
    for name, b in want.items():
        a = getattr(g, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300),
       n_users=st.integers(1, 6), n_objects=st.integers(1, 6), n_times=st.integers(1, 5),
       timestamps=st.booleans(), ratings=st.booleans())
def test_build_order_matches_two_lexsorts(seed, n, n_users, n_objects, n_times,
                                          timestamps, ratings):
    # few ids and times: heavy ties in (user, object, time) and in (object, time)
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n_users, n)
    vs = rng.integers(0, n_objects, n)
    ts = rng.choice(rng.integers(0, 2**53, n_times), n) if timestamps else None
    # distinct ratings tell tied events apart
    rs = rng.permutation(n).astype(np.float64) if ratings else None
    assert_build_matches_lexsort(us, vs, ts, rs, n_users, n_objects)


@pytest.mark.parametrize("ts", [None, [7]])
def test_build_of_a_single_event_matches_two_lexsorts(ts):
    assert_build_matches_lexsort([0], [0], ts, [3.0], 1, 1)
    assert_build_matches_lexsort([1], [2], ts, None, 3, 4)


def test_build_never_writes_to_the_callers_arrays():
    rng = np.random.default_rng(3)
    columns = [rng.integers(0, 5, 200), rng.integers(0, 4, 200),
               rng.integers(0, 50, 200), rng.choice([1.0, 3.0, 5.0], 200)]
    before = [c.copy() for c in columns]
    BipartiteGraph([f"u{i}" for i in range(5)], [f"o{j}" for j in range(4)], *columns)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(columns, before))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62) | st.integers(0, 5), max_size=60))
def test_unique_inverse_matches_np_unique(values):
    values = np.asarray(values, dtype=np.int64)
    distinct, inverse = graph_module.unique_inverse(values.copy())
    want_distinct, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.tobytes() == want_distinct.tobytes()
    assert inverse.dtype == want_inverse.dtype
    assert inverse.tobytes() == want_inverse.ravel().tobytes()


# -- ids that the CSV layout cannot carry ---------------------------------------


@pytest.mark.parametrize("bad_id", ["u,1", "u\t1", "u\n1", "u\r1", " u1", "u1 ",
                                    "\u00a0u1", "u1\u2003"])
@pytest.mark.parametrize("side", ["user", "object"])
def test_write_delimited_refuses_ids_that_do_not_read_back(tmp_path, bad_id, side):
    record = (bad_id, "v1", 10) if side == "user" else ("u0", bad_id, 10)
    g = ingest([("u0", "v0", 9), record])
    path = tmp_path / "events.csv"
    with pytest.raises(DataError, match=re.escape(f"cannot write {side} id {bad_id!r}")):
        write_delimited(g, path)
    assert not path.exists()


def test_tab_file_with_comma_ids_is_not_written_lossily(tmp_path):
    src = tmp_path / "events.tsv"
    src.write_text("u,1\tv1\t10\nu2\tv1\t11\n", encoding="utf-8")
    g = read_delimited(src)
    assert g.user_ids == ["u,1", "u2"]
    with pytest.raises(DataError, match="cannot write user id 'u,1'"):
        write_delimited(g, tmp_path / "out.csv")


@pytest.mark.parametrize("records", [
    [("Time", "o1", 5), ("u2", "o1", 6)],
    [("u1", "RATING"), ("u2", "o1")],
    [("user", "o1", 5, 4.0)],
])
def test_write_delimited_refuses_a_first_line_the_reader_would_skip(tmp_path, records):
    g = ingest(records)
    path = tmp_path / "events.csv"
    with pytest.raises(DataError, match="header word"):
        write_delimited(g, path)
    assert not path.exists()


def test_header_words_past_the_first_line_are_written(tmp_path):
    g = ingest([("u1", "o1", 5), ("Time", "user", 6)])
    path = tmp_path / "events.csv"
    write_delimited(g, path)
    back = read_delimited(path)
    assert back.user_ids == ["u1", "Time"] and back.n_events == 2
