"""Sparse bipartite multigraph over (user, object, timestamp, rating) events."""

from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed or semantically invalid input data."""


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate half-open index ranges [starts[i], stops[i]) into one array."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lens = stops - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(starts - offsets, lens) + np.arange(total, dtype=np.int64)


class RatingScale:
    """Declared categorical rating scale plus the set of neutral scores.

    The neutral set defaults to the middle category and is excluded from
    rating-deviation tables downstream.
    """

    def __init__(self, values: Iterable[float], neutral: Iterable[float] | None = None):
        vals = tuple(sorted(float(v) for v in values))
        if not vals:
            raise DataError("rating scale must declare at least one value")
        if len(set(vals)) != len(vals):
            raise DataError("rating scale contains duplicate values")
        self.values = vals
        if neutral is None:
            neutral = (vals[(len(vals) - 1) // 2],)
        self.neutral = frozenset(float(v) for v in neutral)
        unknown = self.neutral - set(vals)
        if unknown:
            raise DataError(f"neutral scores {sorted(unknown)} are not on the scale")

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float,
                   neutral: Iterable[float] | None = None) -> "RatingScale":
        n = int(round((hi - lo) / step)) + 1
        return cls([lo + i * step for i in range(n)], neutral=neutral)

    def __contains__(self, value: float) -> bool:
        return float(value) in self.values

    def __repr__(self) -> str:
        return f"RatingScale({self.values}, neutral={sorted(self.neutral)})"


class BipartiteGraph:
    """Sparse weighted bipartite multigraph.

    Node ids are interned to dense integer indices at construction. Events
    sharing a (user, object) pair are aggregated into one stored pair with a
    multiplicity count; pairs are ordered by (source, sink), with an index by
    source, and their timestamps are kept sorted per pair. With timestamps,
    the events are also kept in a sink-major view sorted by (sink, time). The
    graph is not changed after construction; per-run state such as the
    per-sink suspiciousness weights lives in the run's ``SignalContext``.
    """

    def __init__(self, user_ids, object_ids, user_idx, obj_idx, times, ratings,
                 priors=None, scale: RatingScale | None = None):
        self.user_ids = list(user_ids)
        self.object_ids = list(object_ids)
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}
        self._object_index = {o: i for i, o in enumerate(self.object_ids)}
        self.scale = scale
        self._build(np.asarray(user_idx, dtype=np.int64),
                    np.asarray(obj_idx, dtype=np.int64),
                    times, ratings, priors)

    # -- construction -----------------------------------------------------

    def _build(self, us, vs, times, ratings, priors):
        n = us.size
        if n == 0:
            raise DataError("empty input")
        nu, nv = len(self.user_ids), len(self.object_ids)
        ts = np.zeros(n, dtype=np.int64) if times is None else np.asarray(times, dtype=np.int64)
        order = np.lexsort((ts, vs, us))
        us, vs, ts = us[order], vs[order], ts[order]
        rat = None if ratings is None else np.asarray(ratings, dtype=np.float64)[order]
        pri = None if priors is None else np.asarray(priors, dtype=np.float64)[order]

        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
        pair_start = np.flatnonzero(new_pair)
        self.pair_src = us[pair_start]
        self.pair_dst = vs[pair_start]
        self.pair_event_indptr = np.concatenate((pair_start, [n])).astype(np.int64)
        self.pair_count = np.diff(self.pair_event_indptr).astype(np.float64)

        self.event_time = ts if times is not None else None
        self.event_rating = rat

        # pairs are already grouped by source
        self.src_pair_indptr = np.searchsorted(self.pair_src, np.arange(nu + 1))

        # sink-major event view, sorted by (sink, time); only needed for temporal work
        if times is not None:
            sorder = np.lexsort((ts, vs))
            self.sink_event_time = ts[sorder]
            self.sink_event_pair = np.repeat(
                np.arange(self.pair_src.size, dtype=np.int64),
                self.pair_count.astype(np.int64))[sorder]
            self.sink_event_indptr = np.searchsorted(vs[sorder], np.arange(nv + 1))
        else:
            self.sink_event_time = None
            self.sink_event_pair = None
            self.sink_event_indptr = None

        if pri is not None:
            # extension hook: per-event priors fold into the sink column weight
            sums = np.bincount(vs, weights=pri, minlength=nv)
            cnts = np.bincount(vs, minlength=nv).astype(np.float64)
            self.sink_prior = np.where(cnts > 0, sums / np.maximum(cnts, 1), 1.0)
        else:
            self.sink_prior = None
        self._sink_event_counts = np.bincount(vs, minlength=nv).astype(np.float64)

    # -- basic shape -------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

    @property
    def n_pairs(self) -> int:
        return int(self.pair_src.size)

    @property
    def n_events(self) -> int:
        return int(self.pair_event_indptr[-1])

    @property
    def has_timestamps(self) -> bool:
        return self.event_time is not None

    @property
    def has_ratings(self) -> bool:
        return self.event_rating is not None

    def user_index(self, user: str) -> int:
        try:
            return self._user_index[user]
        except KeyError:
            raise DataError(f"unknown user: {user!r}") from None

    def object_index(self, obj: str) -> int:
        try:
            return self._object_index[obj]
        except KeyError:
            raise DataError(f"unknown sink: {obj!r}") from None

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.n_users} users x {self.n_objects} objects, "
                f"{self.n_events} events in {self.n_pairs} pairs)")

    # -- degree and pair primitives -------------------------------------------

    def sink_event_counts(self) -> np.ndarray:
        """Raw event count (unweighted indegree) per sink."""
        return self._sink_event_counts

    def counts_matrix(self, column_weights: np.ndarray | None = None):
        """Users-by-objects event-count matrix as scipy CSR; each column scaled
        by its object's weight when ``column_weights`` is given."""
        from scipy.sparse import csr_matrix

        if column_weights is None:
            data = self.pair_count.copy()
        else:
            weights = np.asarray(column_weights, dtype=np.float64)
            data = self.pair_count * weights[self.pair_dst]
        indptr = self.src_pair_indptr.astype(np.int64)
        return csr_matrix((data, self.pair_dst.copy(), indptr),
                          shape=(self.n_users, self.n_objects))

    # -- event export ---------------------------------------------------------

    def event_arrays(self):
        """(user_idx, obj_idx, times, ratings) per event, pair-major order."""
        reps = self.pair_count.astype(np.int64)
        us = np.repeat(self.pair_src, reps)
        vs = np.repeat(self.pair_dst, reps)
        return us, vs, self.event_time, self.event_rating


# -- ingestion ----------------------------------------------------------------


# float64 holds every integer below 2^53 exactly; the temporal signal reads
# timestamps as float64
_TIMESTAMP_LIMIT = 2 ** 53


def _coerce_timestamp(ts) -> int:
    """Exact integer seconds from an int, an integral float or a numeric string."""
    if isinstance(ts, str):
        try:
            ts = int(ts)
        except ValueError:
            pass
    if not isinstance(ts, (int, np.integer)):
        try:
            tsf = float(ts)
        except (TypeError, ValueError):
            raise DataError(f"non-numeric timestamp {ts!r}") from None
        if not tsf.is_integer():
            raise DataError(f"timestamp {tsf!r} is not integer seconds")
        ts = tsf
    ts = int(ts)
    if ts < 0:
        raise DataError(f"negative timestamp {ts}")
    if ts >= _TIMESTAMP_LIMIT:
        raise DataError(f"timestamp {ts} is not below 2^53 seconds")
    return ts


def _coerce_record(rec):
    parts = tuple(rec)
    if not 2 <= len(parts) <= 5:
        raise DataError(f"wrong arity {len(parts)}")
    user, obj, ts, rating, prior = parts + (None,) * (5 - len(parts))
    user, obj = str(user), str(obj)
    if not user or not obj:
        raise DataError("empty node id")
    if ts is not None:
        ts = _coerce_timestamp(ts)
    if rating is not None:
        try:
            rating = float(rating)
        except (TypeError, ValueError):
            raise DataError(f"non-numeric rating {rating!r}") from None
        if not math.isfinite(rating):
            raise DataError(f"non-finite rating {rating!r}")
    if prior is not None:
        try:
            prior = float(prior)
        except (TypeError, ValueError):
            raise DataError(f"non-numeric prior {prior!r}") from None
        if not (math.isfinite(prior) and prior > 0):
            raise DataError(f"prior {prior!r} is not positive and finite")
    return user, obj, ts, rating, prior


def ingest(records: Iterable, scale: RatingScale | None = None,
           diagnostics: list[str] | None = None) -> BipartiteGraph:
    """Aggregate (user, object[, timestamp[, rating[, prior]]]) tuples into a graph.

    Malformed records are rejected with a diagnostic naming the record's
    position (collected in ``diagnostics`` when given, logged otherwise); the
    stream must yield at least one valid record. Timestamps and ratings must
    be present on all records or on none.
    """
    return _ingest(enumerate(records, start=1), "record", scale, diagnostics)


def _ingest(numbered: Iterable[tuple[int, object]], unit: str,
            scale: RatingScale | None, diagnostics: list[str] | None) -> BipartiteGraph:
    """ingest over (position, record) pairs; diagnostics read ``{unit} {position}: ...``."""
    users: list[int] = []
    objs: list[int] = []
    times: list[int] = []
    ratings: list[float] = []
    priors: list[float] = []
    # ids in order of first appearance
    uindex: dict[str, int] = {}
    oindex: dict[str, int] = {}
    n_ts = n_rated = n_prior = 0

    def report(msg: str) -> None:
        if diagnostics is not None:
            diagnostics.append(msg)
        else:
            logger.warning("ingest: %s", msg)

    for pos, rec in numbered:
        try:
            user, obj, ts, rating, prior = _coerce_record(rec)
            if rating is not None and scale is not None and rating not in scale:
                raise DataError(f"rating {rating} outside declared scale")
        except DataError as exc:
            report(f"{unit} {pos}: {exc}")
            continue
        users.append(uindex.setdefault(user, len(uindex)))
        objs.append(oindex.setdefault(obj, len(oindex)))
        times.append(ts if ts is not None else -1)
        n_ts += ts is not None
        ratings.append(rating if rating is not None else np.nan)
        n_rated += rating is not None
        priors.append(prior if prior is not None else 1.0)
        n_prior += prior is not None

    n = len(users)
    if n == 0:
        raise DataError("empty input")
    if 0 < n_ts < n:
        raise DataError("timestamps must be present on all records or on none")
    if 0 < n_rated < n:
        raise DataError("ratings must be present on all records or on none")

    rat_arr = np.asarray(ratings) if n_rated else None
    if rat_arr is not None and scale is None:
        scale = RatingScale(np.unique(rat_arr))
    return BipartiteGraph(
        list(uindex), list(oindex), users, objs,
        times if n_ts else None, rat_arr,
        priors=priors if n_prior else None, scale=scale)


# -- delimited text round-trip --------------------------------------------------

_HEADER_WORDS = {"user", "object", "item", "timestamp", "time", "rating", "stars", "prior"}


def _delimited_rows(lines: Iterable[str]):
    """(line number, fields) of every non-blank line; a header on line 1 is skipped."""
    delim = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if delim is None:
            delim = "\t" if "\t" in line else ","
        parts = [p.strip() for p in line.split(delim)]
        if lineno == 1 and any(p.lower() in _HEADER_WORDS for p in parts):
            continue
        yield lineno, parts


def read_delimited(path: str | Path, scale: RatingScale | None = None,
                   diagnostics: list[str] | None = None) -> BipartiteGraph:
    """ingest the ``user,object[,timestamp[,rating[,prior]]]`` rows of a
    comma- or tab-separated file; a diagnostic names the file line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _ingest(_delimited_rows(fh), "line", scale, diagnostics)


def write_delimited(graph: BipartiteGraph, path: str | Path) -> None:
    """Write events back out in the ingestible CSV layout (no header), pair-major.

    Columns are positional, so ratings cannot be written without timestamps:
    the reader would take them for timestamps. Priors cannot be written at
    all: the graph keeps only their per-sink means. Each rating is written in
    the shortest form that reads back to the same float.
    """
    us, vs, ts, ratings = graph.event_arrays()
    if ratings is not None and ts is None:
        raise DataError("cannot write ratings without timestamps: the CSV layout "
                        "is user,object[,timestamp[,rating]]")
    if graph.sink_prior is not None:
        raise DataError("cannot write priors: the graph keeps only per-sink means, "
                        "not the per-event prior column")
    columns = [np.asarray(graph.user_ids, dtype=object)[us].tolist(),
               np.asarray(graph.object_ids, dtype=object)[vs].tolist()]
    if ts is not None:
        columns.append(ts.astype(str).tolist())
    if ratings is not None:
        # format each distinct rating once; the bit pattern keeps -0.0 apart from 0.0
        bits, rating_of_event = np.unique(ratings.view(np.int64), return_inverse=True)
        labels = np.asarray([np.format_float_positional(v, unique=True, trim="-")
                             for v in bits.view(np.float64).tolist()], dtype=object)
        columns.append(labels[rating_of_event].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
