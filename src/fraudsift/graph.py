"""Sparse bipartite multigraph over (user, object, timestamp, rating) events."""

from __future__ import annotations

import functools
import itertools
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


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of a 1-d integer array: the
    distinct values, ascending, and each value's index among them. It holds
    at most three arrays of the input's length besides the input, where
    np.unique holds six."""
    order = np.argsort(values)
    values = values[order]
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    distinct = values[first]
    np.cumsum(first, out=values)
    del first
    values -= 1
    inverse = np.empty_like(order)
    inverse[order] = values
    return distinct, inverse


def sorted_unique(values) -> np.ndarray:
    """The distinct values in ascending order. This is np.unique's sorting
    path; without return arrays np.unique takes a hash table, which is slower
    on these integer arrays."""
    a = np.sort(values, axis=None)
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


# Most values a lo:hi:step rating range may declare. Each value is a column
# of the per-sink rating tables, so a mistyped step would fill memory.
MAX_SCALE_VALUES = 1000


class RatingScale:
    """Declared categorical rating scale plus the set of neutral scores.

    The values must be finite and distinct, and the neutral scores must be
    among them and not empty. The neutral set defaults to the middle category
    and is excluded from rating-deviation tables downstream.
    """

    def __init__(self, values: Iterable[float], neutral: Iterable[float] | None = None):
        vals = tuple(sorted(float(v) for v in values))
        if not vals:
            raise DataError("rating scale must declare at least one value")
        if not all(map(math.isfinite, vals)):
            raise DataError(f"rating scale values must be finite, got {list(vals)}")
        if len(set(vals)) != len(vals):
            raise DataError("rating scale contains duplicate values")
        self.values = vals
        if neutral is None:
            neutral = (vals[(len(vals) - 1) // 2],)
        self.neutral = frozenset(float(v) for v in neutral)
        if not self.neutral:
            raise DataError("rating scale must declare at least one neutral score")
        unknown = self.neutral - set(vals)
        if unknown:
            raise DataError(f"neutral scores {sorted(unknown)} are not on the scale")

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float,
                   neutral: Iterable[float] | None = None) -> "RatingScale":
        """The values lo, lo + step, ..., hi: the span must be a whole number
        of steps (to rounding), and give at most MAX_SCALE_VALUES values."""
        lo, hi, step = float(lo), float(hi), float(step)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise DataError(f"rating range {lo:g}:{hi:g}:{step:g} is not finite")
        if step <= 0:
            raise DataError(f"rating range step must be positive, got {step:g}")
        if hi < lo:
            raise DataError(f"rating range ends below its start: {lo:g}:{hi:g}")
        steps = (hi - lo) / step
        if not steps < MAX_SCALE_VALUES:
            raise DataError(f"rating range {lo:g}:{hi:g}:{step:g} has more than "
                            f"{MAX_SCALE_VALUES} values")
        n = round(steps)
        if not math.isclose(steps, n, rel_tol=1e-9, abs_tol=1e-9):
            raise DataError(f"rating range {lo:g}:{hi:g} is not a whole number of "
                            f"steps of {step:g}")
        return cls([lo + i * step for i in range(n + 1)], neutral=neutral)

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
    A rated graph built without a scale takes the distinct ratings as one.
    """

    def __init__(self, user_ids, object_ids, user_idx, obj_idx, times, ratings,
                 scale: RatingScale | None = None):
        self._build(user_ids, object_ids, [user_idx, obj_idx, times, ratings], scale)

    @classmethod
    def _from_columns(cls, user_ids, object_ids, columns: list,
                      scale: RatingScale | None) -> BipartiteGraph:
        """The graph of ``columns`` [user_idx, obj_idx, times, ratings], which
        it empties: when the list held the only references, each unsorted
        column is freed once it is sorted."""
        graph = cls.__new__(cls)
        graph._build(user_ids, object_ids, columns, scale)
        return graph

    # -- construction -----------------------------------------------------

    def _build(self, user_ids, object_ids, columns: list, scale: RatingScale | None):
        """Sort the events into the pair-major and the sink-major view.

        ``columns`` is emptied, and each input column is dropped once its
        sorted copy exists; input arrays are only read, never written.

        Pair-major order runs by (user, object, time, input position): a
        stable argsort of user·n_objects + object, then one of pair rank ·
        n_distinct_times + time rank over that order. Sink-major order runs
        by (object, time, pair-major position): the pair-major positions
        sorted by the distinct keys time rank·n_events + position, then a
        stable argsort of their objects as the smallest unsigned dtype that
        holds them. A stable argsort is quick on keys already in order, as
        both pair-major keys are on a file that write_delimited wrote, and
        numpy radix-sorts dtypes of up to 16 bits. The keys are below
        n_users·n_objects and n_events², so below 2^63 for any graph that
        fits in memory.
        """
        self.user_ids = list(user_ids)
        self.object_ids = list(object_ids)
        self.scale = scale
        us, vs, times, ratings = columns
        columns.clear()
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n = us.size
        if n == 0:
            raise DataError("empty input")
        nu, nv = len(self.user_ids), len(self.object_ids)
        # each temporary is freed once used, so few event arrays live at once
        pair_key = us * nv
        pair_key += vs
        order = np.argsort(pair_key, kind="stable")
        pair_key = None if times is None else pair_key[order]
        us = us[order]
        vs = vs[order]
        ts = None if times is None else np.asarray(times, dtype=np.int64)[order]
        del times
        rat = None if ratings is None else np.asarray(ratings, dtype=np.float64)[order]
        del ratings, order
        if ts is not None:
            # dense rank of each event's time among the distinct times
            distinct, time_rank = unique_inverse(ts)
            n_times = distinct.size
            del distinct
            # pair rank·n_times + time rank, in the pair key's place
            new_pair = pair_key[1:] != pair_key[:-1]
            pair_key[0] = 0
            np.cumsum(new_pair, out=pair_key[1:])
            del new_pair
            pair_key *= n_times
            pair_key += time_rank
            within = np.argsort(pair_key, kind="stable")
            del pair_key
            us = us[within]
            vs = vs[within]
            ts = ts[within]
            rat = None if rat is None else rat[within]
            time_rank = time_rank[within]
            del within

        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
        pair_start = np.flatnonzero(new_pair)
        del new_pair
        self.pair_src = us[pair_start]
        del us
        self.pair_dst = vs[pair_start]
        self.pair_event_indptr = np.concatenate((pair_start, [n])).astype(np.int64)
        del pair_start
        self.pair_count = np.diff(self.pair_event_indptr).astype(np.float64)

        self.event_time = ts
        self.event_rating = rat

        # pairs are already grouped by source
        self.src_pair_indptr = np.searchsorted(self.pair_src, np.arange(nu + 1))

        sink_counts = np.bincount(vs, minlength=nv)
        self._sink_event_counts = sink_counts.astype(np.float64)
        # sink-major event view, sorted by (sink, time); only needed for temporal work
        if ts is not None:
            # pair-major positions by (time, position), then stably by object
            sorder = time_rank * n
            del time_rank
            sorder += np.arange(n)
            sorder.sort()
            sorder %= n
            sink = vs.astype(np.min_scalar_type(nv - 1))[sorder]
            del vs
            sorder = sorder[np.argsort(sink, kind="stable")]
            del sink
            self.sink_event_time = ts[sorder]
            self.sink_event_pair = np.repeat(
                np.arange(self.pair_src.size, dtype=np.int64),
                self.pair_count.astype(np.int64))[sorder]
            self.sink_event_indptr = np.concatenate(([0], np.cumsum(sink_counts)))
        else:
            self.sink_event_time = None
            self.sink_event_pair = None
            self.sink_event_indptr = None
        if scale is None and self.has_ratings:
            self.scale = RatingScale(np.unique(self.event_rating))

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

    @functools.cached_property
    def _object_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.object_ids)}

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
    if not 2 <= len(parts) <= 4:
        raise DataError(f"wrong arity {len(parts)}")
    user, obj, ts, rating = parts + (None,) * (4 - len(parts))
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
    return user, obj, ts, rating


def _intern(index: dict[str, int], column: tuple) -> np.ndarray:
    """Dense codes of an id column (ids, first, codes): row i holds
    ``ids[codes[i]]``, and ``ids[j]`` first appears at row ``first[j]`` (an
    id may be listed twice). Ids new to ``index`` join it in order of first
    appearance."""
    ids, first, codes = column
    lookup = np.fromiter(map(index.get, ids, itertools.repeat(-1)), np.int64, len(ids))
    new = np.flatnonzero(lookup < 0)
    new = new[np.argsort(first[new])].tolist()
    lookup[new] = [index.setdefault(ids[i], len(index)) for i in new]
    return lookup[codes]


class _Columns:
    """Accepted events, gathered batch by batch in input order: ids interned
    in order of first appearance, times as int64 (-1 where absent) and
    ratings as float64 (nan where absent), or None for a batch that has no
    times or no ratings at all. Both entry points build their graph through
    it."""

    def __init__(self, unit: str, scale: RatingScale | None,
                 diagnostics: list[str] | None):
        self.unit = unit
        self.scale = scale
        self.diagnostics = diagnostics
        self.user_index: dict[str, int] = {}
        self.object_index: dict[str, int] = {}
        # users, objects, times and ratings, one list of batch arrays each
        self.parts: tuple[list, ...] = ([], [], [], [])
        self.n_ts = self.n_rated = 0

    def coerce(self, pos: int, rec):
        """The record as (user, object, timestamp, rating), or None after
        reporting ``{unit} {pos}: ...`` when it is malformed or off the scale."""
        try:
            user, obj, ts, rating = _coerce_record(rec)
            if rating is not None and self.scale is not None and rating not in self.scale:
                raise DataError(f"rating {rating} outside declared scale")
        except DataError as exc:
            self.reject(pos, str(exc))
            return None
        return user, obj, ts, rating

    def reject(self, pos: int, reason: str) -> None:
        msg = f"{self.unit} {pos}: {reason}"
        if self.diagnostics is not None:
            self.diagnostics.append(msg)
        else:
            logger.warning("ingest: %s", msg)

    def add(self, users: tuple, objs: tuple, times: np.ndarray | None,
            ratings: np.ndarray | None) -> None:
        """Append a batch of accepted events; ``users`` and ``objs`` are id
        columns as ``_intern`` takes them."""
        batch = (_intern(self.user_index, users), _intern(self.object_index, objs), times,
                 ratings)
        for parts, column in zip(self.parts, batch):
            parts.append(column)
        if times is not None:
            self.n_ts += int(np.count_nonzero(times >= 0))
        if ratings is not None:
            self.n_rated += int(np.count_nonzero(~np.isnan(ratings)))

    def graph(self) -> BipartiteGraph:
        n = sum(users.size for users in self.parts[0])
        if n == 0:
            raise DataError("empty input")
        if 0 < self.n_ts < n:
            raise DataError("timestamps must be present on all records or on none")
        if 0 < self.n_rated < n:
            raise DataError("ratings must be present on all records or on none")
        # every non-empty batch holds a column that all events hold; each
        # column's batches are freed once joined, and the joined column once
        # the graph has sorted it
        columns = []
        for parts, present in zip(self.parts, (n, n, self.n_ts, self.n_rated)):
            columns.append(np.concatenate([c for c in parts if c is not None])
                           if present else None)
            parts.clear()
        return BipartiteGraph._from_columns(list(self.user_index), list(self.object_index),
                                            columns, self.scale)


def _record_batch(rows: list[tuple]) -> tuple:
    """``_Columns.add`` arguments for coerced (user, object, timestamp, rating) rows."""
    users, objs, ts, rs = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    rows_at = np.arange(len(users))
    return ((users, rows_at, rows_at), (objs, rows_at, rows_at),
            _optional_column(ts, -1, np.int64), _optional_column(rs, np.nan, np.float64))


def _optional_column(values: list, fill, dtype) -> np.ndarray | None:
    """``values`` as an array with ``fill`` for None, or None when all are None."""
    absent = values.count(None)
    if absent == len(values):
        return None
    if absent:
        values = [fill if v is None else v for v in values]
    return np.array(values, dtype=dtype)


def ingest(records: Iterable, scale: RatingScale | None = None,
           diagnostics: list[str] | None = None) -> BipartiteGraph:
    """Aggregate (user, object[, timestamp[, rating]]) tuples into a graph.

    Malformed records are rejected with a diagnostic naming the record's
    position (collected in ``diagnostics`` when given, logged otherwise); the
    stream must yield at least one valid record. A record has two to four
    fields; any other length is rejected as the wrong arity. Timestamps and
    ratings must be present on all records or on none.
    """
    columns = _Columns("record", scale, diagnostics)
    rows = [row for row in (columns.coerce(pos, rec)
                            for pos, rec in enumerate(records, start=1))
            if row is not None]
    columns.add(*_record_batch(rows))
    return columns.graph()


# -- delimited text round-trip --------------------------------------------------

_HEADER_WORDS = {"user", "object", "item", "timestamp", "time", "rating", "stars"}

# Bytes read per chunk of a delimited file; a chunk always ends at the end of
# a line.
CHUNK_BYTES = 1 << 20

# The non-ASCII characters str.strip removes, and their UTF-8 bytes as _window
# reads them; a field that starts or ends with one takes the per-line path
_WIDE_SPACES = "".join(map(chr, (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028,
                                 0x2029, 0x202F, 0x205F, 0x3000)))
_WIDE_SPACE_KEYS = np.array([int.from_bytes(c.encode(), "little") for c in _WIDE_SPACES],
                            dtype=np.uint64)
# _LOW_BYTES[b] keeps the first b bytes of a _window value
_LOW_BYTES = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)
# odd multiplier of the hash that groups keys wider than 8 bytes
_WORD_MIX = np.uint64(0x9E3779B97F4A7C15)


def _line_fields(line: str, lineno: int, delim: str) -> list[str] | None:
    """The stripped fields of one line, or None for a blank line or a header
    on line 1."""
    if not line.strip():
        return None
    parts = list(map(str.strip, line.split(delim)))
    if lineno == 1 and any(p.lower() in _HEADER_WORDS for p in parts):
        return None
    return parts


def _padded(data: bytes) -> np.ndarray:
    """The bytes as uint8 and 8 '0' bytes, for _window and _parse_timestamps."""
    return np.frombuffer(data + b"00000000", dtype=np.uint8)


def _window(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes from each position of a _padded buffer as a little-endian uint64."""
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


class _DelimitedReader:
    """Chunk-at-a-time columnar reader behind ``read_delimited``.

    Each chunk is checked as a whole over its bytes. A line takes the byte
    path when it has the file's field count, no empty field, no control or
    space byte other than the separators, valid UTF-8 and no field that
    starts or ends with one of ``_WIDE_SPACES``, when it is not a header on
    line 1, and when its timestamp is 1 to 16 ASCII digits below 2^53 and
    its rating is finite (and on the declared scale). Such a line reads
    exactly as ``_coerce_record`` would read it. The byte path takes the
    fields' bounds from the separators' positions, keys each field by its
    bytes, decodes only each distinct id and rating, and reads timestamps by
    a Horner product over their digits. Every other line (blank lines, a
    header, padded fields, anything malformed) goes through ``_line_fields``
    and ``_coerce_record`` at its own position, and a line that is not UTF-8
    is rejected there, so diagnostics and the first-appearance order of ids
    do not depend on which path a line took.
    """

    def __init__(self, columns: _Columns):
        self.columns = columns
        self.lines_read = 0
        self.delim: str | None = None
        # the field count of the first clean line with two to four fields; 0 until one is seen
        self.n_fields = 0

    def _choose_delimiter(self, data: bytes) -> bool:
        """Take the delimiter from the first non-blank line (a line that is
        not UTF-8 is not blank); False while every line so far is blank."""
        text = data.decode("utf-8", "replace")
        at = len(text) - len(text.lstrip())
        if at == len(text):
            return False
        line = text[text.rfind("\n", 0, at) + 1:].partition("\n")[0]
        self.delim = "\t" if "\t" in line else ","
        return True

    def feed(self, data: bytes) -> None:
        """Read one chunk of whole lines."""
        first = self.lines_read
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"
        self.lines_read += data.count(b"\n")
        if self.delim is None and not self._choose_delimiter(data):
            return
        buf = _padded(data)
        suspect = self._suspect_lines(data, buf, first == 0)
        lines = data.split(b"\n") if suspect.any() else None
        fast_at = np.flatnonzero(~suspect)
        fast = None
        if fast_at.size:
            clean = buf if lines is None else _padded(
                b"\n".join(itertools.compress(lines, ~suspect)) + b"\n")
            fast, ok = self._parse_clean(clean, fast_at.size)
            if not ok.all():
                suspect[fast_at[~ok]] = True
                fast_at = fast_at[ok]
                if lines is None:
                    lines = data.split(b"\n")

        rows, rows_at = [], []
        delim, columns = self.delim, self.columns
        for i in np.flatnonzero(suspect).tolist():
            pos = first + i + 1
            try:
                line = lines[i].decode("utf-8")
            except UnicodeDecodeError:
                columns.reject(pos, "not valid UTF-8")
                continue
            parts = _line_fields(line, pos, delim)
            if parts is not None and (row := columns.coerce(pos, parts)) is not None:
                rows.append(row)
                rows_at.append(i)
        slow = _record_batch(rows)
        if fast is None:
            columns.add(*slow)
        elif not rows:
            columns.add(*fast)
        else:
            order = np.argsort(np.concatenate((fast_at, rows_at)), kind="stable")
            columns.add(*_merge(fast, slow, order))

    def _suspect_lines(self, data: bytes, buf: np.ndarray, has_line_1: bool) -> np.ndarray:
        """Per line of the _padded chunk, whether it must take the per-line path."""
        delim, text = self.delim, buf[:-8]
        newline = text == 10
        ends = np.flatnonzero(newline)
        is_delim = text == ord(delim)
        fields = np.diff(np.searchsorted(np.flatnonzero(is_delim), ends), prepend=0) + 1
        # controls and space, the separators aside
        separator = newline | is_delim
        odd = text < 33
        odd &= ~separator
        # an empty field puts two separators side by side
        odd[0] |= separator[0]
        odd[1:] |= separator[1:] & separator[:-1]
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                # the per-line path finds and rejects the lines that are not UTF-8
                odd |= text > 127
            else:
                # the first byte of a wide space at a field's edge: its UTF-8
                # is 2 bytes led by 0xC2 or 3 bytes led by 0xE1 to 0xE3
                lead = np.flatnonzero((text >= 0xC2) & (text <= 0xE3))
                width = np.where(text[lead] == 0xC2, 2, 3)
                hit = np.isin(_window(buf)[lead] & _LOW_BYTES[width], _WIDE_SPACE_KEYS)
                lead, width = lead[hit], width[hit]
                odd[lead[(lead == 0) | separator[lead - 1] | separator[lead + width]]] = True
        suspect = np.zeros(ends.size, dtype=bool)
        suspect[np.searchsorted(ends, np.flatnonzero(odd))] = True
        if has_line_1:
            line = data[:ends[0]].decode("utf-8", "replace")
            suspect[0] |= _line_fields(line, 1, delim) is None
        if not self.n_fields:
            usable = np.flatnonzero(~suspect & (fields >= 2) & (fields <= 4))
            if usable.size:
                self.n_fields = int(fields[usable[0]])
        suspect |= fields != self.n_fields
        return suspect

    def _parse_clean(self, buf: np.ndarray, n: int) -> tuple[tuple, np.ndarray]:
        """``_Columns.add`` arguments for the ``n`` lines of the _padded
        ``buf``, which passed ``_suspect_lines``, and the mask of lines whose
        timestamp and rating read exactly; the arguments cover only those
        lines."""
        k, text, win = self.n_fields, buf[:-8], _window(buf)
        ends = np.flatnonzero((text == ord(self.delim)) | (text == 10)).reshape(n, k)
        starts = np.concatenate(([0], ends.ravel()[:-1] + 1)).reshape(n, k)
        ok = np.ones(n, dtype=bool)
        times = ratings = None
        if k >= 3:
            times = _parse_timestamps(buf, starts[:, 2], ends[:, 2])
            ok &= times >= 0
        if k == 4:
            ratings, rated = _parse_ratings(_id_column(win, starts[:, 3], ends[:, 3]),
                                            self.columns.scale)
            ok &= rated
        if not ok.all():
            starts, ends = starts[ok], ends[ok]
            times = None if times is None else times[ok]
            ratings = None if ratings is None else ratings[ok]
        users = _id_column(win, starts[:, 0], ends[:, 0])
        objs = _id_column(win, starts[:, 1], ends[:, 1])
        return (users, objs, times, ratings), ok


def _id_column(win: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """The fields as an id column for ``_intern``. A field's key is its bytes
    zero-padded to whole 8-byte words (no field holds a zero byte). Fields
    are keyed group by group of equal word count, so one long field does not
    widen every key, and each group's distinct keys are decoded once each,
    as a fixed-width bytes string, which drops the padding."""
    widths = ends - starts
    words = (widths + 7) >> 3
    names: list[str] = []
    first, codes = [np.empty(0, dtype=np.int64)], np.empty(starts.size, dtype=np.int64)
    for w in sorted_unique(words).tolist():
        rows = np.flatnonzero(words == w)
        at, left = starts[rows], widths[rows]
        keys = np.empty((rows.size, w), dtype="<u8")
        for j in range(w):
            keys[:, j] = win[at + 8 * j] & _LOW_BYTES[np.minimum(left - 8 * j, 8)]
        order, new = _group_rows(keys)
        runs = np.flatnonzero(new)
        codes[rows[order]] = np.cumsum(new) - 1 + len(names)
        first.append(rows[np.minimum.reduceat(order, runs)])
        names += map(bytes.decode, keys[order[runs]].view(f"S{8 * w}").ravel().tolist())
    return names, np.concatenate(first), codes


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order of the rows of ``keys`` that puts equal rows side by side, and
    the mask of rows in that order that differ from the row before. The order
    is an unstable argsort of a hash of each row's words (faster than sorting
    the rows), or np.lexsort of the words when two distinct rows share a hash."""
    by = keys[:, 0].copy()
    for word in keys.T[1:]:
        by *= _WORD_MIX
        by ^= word
    order = np.argsort(by)
    ordered, by = keys[order], by[order]
    new = np.ones(by.size, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    if (new[1:] & (by[1:] == by[:-1])).any():
        order = np.lexsort(keys.T)
        ordered = keys[order]
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return order, new


def _parse_timestamps(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The value of each field of 1 to 16 ASCII digits that is below 2^53 (so
    every such value), by a Horner product over its digits aligned at the
    right; -1 for any other field (a sign, a non-digit or more digits)."""
    widths = ends - starts
    back = np.arange(min(int(widths.max()), 16), 0, -1)[:, None]
    # row j: each field's byte j places before its end as a digit (bytes
    # below '0' wrap round to the top), or the padding's '0' before its start
    digits = buf[np.where(back > widths, buf.size - 1, ends - back)] - np.uint8(48)
    times = np.zeros(starts.size, dtype=np.int64)
    for row in digits:
        times *= 10
        times += row
    times[(widths > 16) | (digits > 9).any(axis=0) | (times >= _TIMESTAMP_LIMIT)] = -1
    return times


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_ratings(column: tuple, scale: RatingScale | None):
    """float() of each field of an id column, parsing each distinct string
    once, and a mask of the finite ones on ``scale``."""
    strings, _, codes = column
    values = np.fromiter(map(_float_or_nan, strings), np.float64, len(strings))
    good = np.isfinite(values)
    if scale is not None:
        good &= np.fromiter((v in scale for v in values.tolist()), bool, values.size)
    return values[codes], good[codes]


def _merge(a: tuple, b: tuple, order: np.ndarray) -> tuple:
    """Two batches of ``_Columns.add`` arguments as one, rows taken in ``order``
    of their concatenation."""
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    n_a = a[0][2].size

    def ids(i):
        (names_a, first_a, codes_a), (names_b, first_b, codes_b) = a[i], b[i]
        return (names_a + names_b, at[np.concatenate((first_a, first_b + n_a))],
                np.concatenate((codes_a, codes_b + len(names_a)))[order])

    def column(i, fill):
        if a[i] is None and b[i] is None:
            return None
        parts = [np.full(x[0][2].size, fill) if x[i] is None else x[i] for x in (a, b)]
        return np.concatenate(parts)[order]

    return ids(0), ids(1), column(2, -1), column(3, np.nan)


def read_delimited(path: str | Path, scale: RatingScale | None = None,
                   diagnostics: list[str] | None = None) -> BipartiteGraph:
    """ingest the ``user,object[,timestamp[,rating]]`` rows of a comma- or
    tab-separated file; a diagnostic names the file line.

    The delimiter is a tab when the first non-blank line holds one, else a
    comma; a line ends at \\n, \\r or \\r\\n; fields are stripped of
    surrounding whitespace; blank lines are skipped, and so is line 1 when a
    field there is a header word; a line that is not UTF-8 is rejected. The
    file is read in binary chunks of whole lines and parsed column by
    column over their bytes (see ``_DelimitedReader``); the ids, arrays and
    diagnostics are those of passing each line through ``ingest`` in turn.
    """
    columns = _Columns("line", scale, diagnostics)
    reader = _DelimitedReader(columns)
    with open(path, "rb") as fh:
        held: list[bytes] = []
        while data := fh.read(CHUNK_BYTES):
            # a chunk ends at a read's last \r or \n; a \r that ends a read
            # may be half of a \r\n, so it waits for the next read
            if held and held[-1].endswith(b"\r") and not data.startswith(b"\n"):
                reader.feed(b"".join(held))
                held.clear()
            stop = len(data) - data.endswith(b"\r")
            end = max(data.rfind(b"\n", 0, stop), data.rfind(b"\r", 0, stop)) + 1
            if end:
                reader.feed(b"".join(held) + data[:end])
                held.clear()
            held.append(data[end:])
        if rest := b"".join(held):
            reader.feed(rest)
    return columns.graph()


def _unwritable_id(ids: list[str]) -> str | None:
    """The first id that would not read back as itself from the CSV layout:
    one holding a comma, tab, newline or carriage return, or with whitespace
    at either end. None when every id reads back."""
    joined = "\0".join(ids)
    if not any(c in joined for c in ",\t\n\r") and list(map(str.strip, ids)) == ids:
        return None
    return next(i for i in ids if any(c in i for c in ",\t\n\r") or i != i.strip())


def write_delimited(graph: BipartiteGraph, path: str | Path) -> None:
    """Write events back out in the ingestible CSV layout (no header), pair-major.

    Columns are positional, so ratings cannot be written without timestamps:
    the reader would take them for timestamps. Ids are written unquoted, so
    an id holding a comma, tab, newline or carriage return, or with
    whitespace at either end, is refused before anything is written; so is
    a first line holding a header word (in any case), which the reader would
    skip. Each rating is written in the shortest form that reads back to the
    same float.
    """
    us, vs, ts, ratings = graph.event_arrays()
    if ratings is not None and ts is None:
        raise DataError("cannot write ratings without timestamps: the CSV layout "
                        "is user,object[,timestamp[,rating]]")
    for kind, ids in (("user", graph.user_ids), ("object", graph.object_ids)):
        bad = _unwritable_id(ids)
        if bad is not None:
            raise DataError(f"cannot write {kind} id {bad!r}: the CSV layout has no "
                            "quoting for commas, tabs, line breaks or surrounding spaces")
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
    header = [f for f in next(zip(*columns), ()) if f.lower() in _HEADER_WORDS]
    if header:
        raise DataError(f"cannot write {header[0]!r} on the first line: the reader "
                        "skips a first line holding a header word")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
