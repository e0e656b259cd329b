"""Dual-indexed sparse bipartite multigraph over (user, object, timestamp, rating) events."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class EdgeRecord:
    """One rating/retweet event. Timestamp (epoch seconds) and rating are optional."""

    user: str
    object: str
    timestamp: int | None = None
    rating: float | None = None
    prior: float | None = None


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
        self._index = {v: i for i, v in enumerate(vals)}

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float,
                   neutral: Iterable[float] | None = None) -> "RatingScale":
        n = int(round((hi - lo) / step)) + 1
        return cls([lo + i * step for i in range(n)], neutral=neutral)

    def __contains__(self, value: float) -> bool:
        return float(value) in self._index

    def __len__(self) -> int:
        return len(self.values)

    def category(self, value: float) -> int:
        try:
            return self._index[float(value)]
        except KeyError:
            raise DataError(f"rating {value!r} is not on the declared scale") from None

    def __repr__(self) -> str:
        return f"RatingScale({self.values}, neutral={sorted(self.neutral)})"


class BipartiteGraph:
    """Sparse weighted bipartite multigraph, indexed by both source and sink.

    Node ids are interned to dense integer indices at construction. Events
    sharing a (user, object) pair are aggregated into one stored pair with a
    multiplicity count; their timestamps are kept sorted per pair. The graph
    is not changed after construction; per-run state such as the per-sink
    suspiciousness weights lives in the run's ``SignalContext``.
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
        self._event_src = us
        self._event_dst = vs

        # forward index: pairs are already grouped by source
        self.src_pair_indptr = np.searchsorted(self.pair_src, np.arange(nu + 1))
        # reverse index: permutation of pairs ordered by (sink, source)
        self.sink_pair_order = np.lexsort((self.pair_src, self.pair_dst))
        self.sink_pair_indptr = np.searchsorted(
            self.pair_dst[self.sink_pair_order], np.arange(nv + 1))

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
        self._user_event_counts = np.bincount(us, minlength=nu).astype(np.float64)

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

    def user_event_counts(self) -> np.ndarray:
        return self._user_event_counts

    def pairs_of_user(self, ui: int) -> np.ndarray:
        return np.arange(self.src_pair_indptr[ui], self.src_pair_indptr[ui + 1])

    def pairs_of_sink(self, vi: int) -> np.ndarray:
        return self.sink_pair_order[self.sink_pair_indptr[vi]:self.sink_pair_indptr[vi + 1]]

    def pair_timestamps(self, pid: int) -> np.ndarray:
        if not self.has_timestamps:
            raise DataError("graph has no timestamps")
        return self.event_time[self.pair_event_indptr[pid]:self.pair_event_indptr[pid + 1]]

    def pair_ratings(self, pid: int) -> np.ndarray:
        if not self.has_ratings:
            raise DataError("graph has no ratings")
        return self.event_rating[self.pair_event_indptr[pid]:self.pair_event_indptr[pid + 1]]

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

    def events(self) -> Iterator[EdgeRecord]:
        """All events in pair-major order (timestamps sorted within each pair)."""
        for p in range(self.n_pairs):
            u = self.user_ids[self.pair_src[p]]
            o = self.object_ids[self.pair_dst[p]]
            lo, hi = self.pair_event_indptr[p], self.pair_event_indptr[p + 1]
            for e in range(lo, hi):
                yield EdgeRecord(
                    u, o,
                    int(self.event_time[e]) if self.has_timestamps else None,
                    float(self.event_rating[e]) if self.has_ratings else None)

    def event_arrays(self):
        """(user_idx, obj_idx, times, ratings) per event, pair-major order."""
        reps = self.pair_count.astype(np.int64)
        us = np.repeat(self.pair_src, reps)
        vs = np.repeat(self.pair_dst, reps)
        return us, vs, self.event_time, self.event_rating


# -- ingestion ----------------------------------------------------------------


def _coerce_record(rec, pos: int):
    if isinstance(rec, EdgeRecord):
        user, obj, ts, rating, prior = rec.user, rec.object, rec.timestamp, rec.rating, rec.prior
    else:
        parts = tuple(rec)
        if not 2 <= len(parts) <= 5:
            raise DataError(f"record {pos}: wrong arity {len(parts)}")
        user, obj = parts[0], parts[1]
        ts = parts[2] if len(parts) > 2 else None
        rating = parts[3] if len(parts) > 3 else None
        prior = parts[4] if len(parts) > 4 else None
    user, obj = str(user), str(obj)
    if not user or not obj:
        raise DataError(f"record {pos}: empty node id")
    if ts is not None:
        try:
            tsf = float(ts)
        except (TypeError, ValueError):
            raise DataError(f"record {pos}: non-numeric timestamp {ts!r}") from None
        if not float(tsf).is_integer():
            raise DataError(f"record {pos}: timestamp {ts!r} is not integer seconds")
        ts = int(tsf)
        if ts < 0:
            raise DataError(f"record {pos}: negative timestamp {ts}")
    if rating is not None:
        try:
            rating = float(rating)
        except (TypeError, ValueError):
            raise DataError(f"record {pos}: non-numeric rating {rating!r}") from None
        if not math.isfinite(rating):
            raise DataError(f"record {pos}: non-finite rating {rating!r}")
    if prior is not None:
        try:
            prior = float(prior)
        except (TypeError, ValueError):
            raise DataError(f"record {pos}: non-numeric prior {prior!r}") from None
        if not (math.isfinite(prior) and prior > 0):
            raise DataError(f"record {pos}: prior {prior!r} is not positive and finite")
    return user, obj, ts, rating, prior


def ingest(records: Iterable, scale: RatingScale | None = None,
           diagnostics: list[str] | None = None) -> BipartiteGraph:
    """Aggregate an event stream into a BipartiteGraph.

    Malformed records are rejected with a positional diagnostic (collected in
    ``diagnostics`` when given, logged otherwise); the stream must yield at
    least one valid record. Timestamps and ratings must be present on all
    records or on none.
    """
    users: list[int] = []
    objs: list[int] = []
    times: list[int] = []
    ratings: list[float] = []
    priors: list[float] = []
    uindex: dict[str, int] = {}
    oindex: dict[str, int] = {}
    uids: list[str] = []
    oids: list[str] = []
    n_ts = n_rated = n_prior = 0

    def report(msg: str) -> None:
        if diagnostics is not None:
            diagnostics.append(msg)
        else:
            logger.warning("ingest: %s", msg)

    pos = 0
    for pos, rec in enumerate(records, start=1):
        try:
            user, obj, ts, rating, prior = _coerce_record(rec, pos)
            if rating is not None and scale is not None and rating not in scale:
                raise DataError(f"record {pos}: rating {rating} outside declared scale")
        except DataError as exc:
            report(str(exc))
            continue
        ui = uindex.setdefault(user, len(uids))
        if ui == len(uids):
            uids.append(user)
        oi = oindex.setdefault(obj, len(oids))
        if oi == len(oids):
            oids.append(obj)
        users.append(ui)
        objs.append(oi)
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
        uids, oids, users, objs,
        times if n_ts else None, rat_arr,
        priors=priors if n_prior else None, scale=scale)


# -- delimited text round-trip --------------------------------------------------

_HEADER_WORDS = {"user", "object", "item", "timestamp", "time", "rating", "stars", "prior"}


def parse_delimited(lines: Iterable[str]) -> tuple[list[tuple], list[str]]:
    """Parse ``user,object[,timestamp[,rating[,prior]]]`` rows; returns (records, diagnostics)."""
    records: list[tuple] = []
    diagnostics: list[str] = []
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
        if not 2 <= len(parts) <= 5:
            diagnostics.append(f"line {lineno}: wrong arity {len(parts)}")
            continue
        rec: list = list(parts[:2])
        ok = True
        for j, kind in ((2, "timestamp"), (3, "rating"), (4, "prior")):
            if len(parts) > j:
                try:
                    rec.append(float(parts[j]))
                except ValueError:
                    diagnostics.append(f"line {lineno}: non-numeric {kind} {parts[j]!r}")
                    ok = False
                    break
        if ok:
            records.append(tuple(rec))
    return records, diagnostics


def read_delimited(path: str | Path, scale: RatingScale | None = None,
                   diagnostics: list[str] | None = None) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        records, diags = parse_delimited(fh)
    if diagnostics is not None:
        diagnostics.extend(diags)
    elif diags:
        logger.warning("read_delimited(%s): %d rejected lines", path, len(diags))
    return ingest(records, scale=scale, diagnostics=diagnostics)


def write_delimited(graph: BipartiteGraph, path: str | Path) -> None:
    """Write events back out in the ingestible CSV layout (no header), pair-major.

    Columns are positional, so ratings cannot be written without timestamps:
    the reader would take them for timestamps.
    """
    us, vs, ts, ratings = graph.event_arrays()
    if ratings is not None and ts is None:
        raise DataError("cannot write ratings without timestamps: the CSV layout "
                        "is user,object[,timestamp[,rating]]")
    columns = [np.asarray(graph.user_ids, dtype=object)[us].tolist(),
               np.asarray(graph.object_ids, dtype=object)[vs].tolist()]
    if ts is not None:
        columns.append(ts.astype(str).tolist())
    if ratings is not None:
        # format each distinct rating once; the bit pattern keeps -0.0 apart from 0.0
        bits, rating_of_event = np.unique(ratings.view(np.int64), return_inverse=True)
        labels = np.asarray([f"{v:g}" for v in bits.view(np.float64).tolist()], dtype=object)
        columns.append(labels[rating_of_event].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
