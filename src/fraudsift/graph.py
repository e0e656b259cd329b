"""Sparse bipartite multigraph over (user, object, timestamp, rating) events."""

from __future__ import annotations

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
    """

    def __init__(self, user_ids, object_ids, user_idx, obj_idx, times, ratings,
                 scale: RatingScale | None = None):
        self.user_ids = list(user_ids)
        self.object_ids = list(object_ids)
        self._object_index = {o: i for i, o in enumerate(self.object_ids)}
        self.scale = scale
        self._build(np.asarray(user_idx, dtype=np.int64),
                    np.asarray(obj_idx, dtype=np.int64),
                    times, ratings)

    # -- construction -----------------------------------------------------

    def _build(self, us, vs, times, ratings):
        """Sort the events into the pair-major and the sink-major view.

        One stable argsort of the timestamps serves both orders. Pair-major
        order is a stable sort of user·n_objects + object taken over the time
        order: events run by (user, object, time, input position). Sink-major
        order is one stable sort of object·n_distinct_times + time rank over
        the pair-major events: they run by (object, time, pair-major
        position). The keys are below n_users·n_objects and
        n_objects·n_events, so below n_events² when every id has an event:
        below 2^63 for any graph that fits in memory.
        """
        n = us.size
        if n == 0:
            raise DataError("empty input")
        nu, nv = len(self.user_ids), len(self.object_ids)
        # each temporary is freed once used, so few index arrays live at once
        pair_key = us * nv
        pair_key += vs
        if times is None:
            order = np.argsort(pair_key, kind="stable")
            ts = np.zeros(n, dtype=np.int64)
        else:
            ts = np.asarray(times, dtype=np.int64)
            by_time = np.argsort(ts, kind="stable")
            pair_key = pair_key[by_time]
            order = by_time[np.argsort(pair_key, kind="stable")]
            # dense rank of each event's time among the distinct times
            ranks = ts[by_time]
            new_time = np.empty(n, dtype=bool)
            new_time[0] = False
            np.not_equal(ranks[1:], ranks[:-1], out=new_time[1:])
            np.cumsum(new_time, out=ranks)
            n_times = int(ranks[-1]) + 1
            time_rank = np.empty(n, dtype=np.int64)
            time_rank[by_time] = ranks
            del by_time, ranks, new_time
        del pair_key
        us, vs, ts = us[order], vs[order], ts[order]
        rat = None if ratings is None else np.asarray(ratings, dtype=np.float64)[order]
        if times is not None:
            time_rank = time_rank[order]
        del order

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
            sink_key = vs * n_times
            sink_key += time_rank
            del time_rank
            sorder = np.argsort(sink_key, kind="stable")
            del sink_key
            self.sink_event_time = ts[sorder]
            self.sink_event_pair = np.repeat(
                np.arange(self.pair_src.size, dtype=np.int64),
                self.pair_count.astype(np.int64))[sorder]
            self.sink_event_indptr = np.searchsorted(vs[sorder], np.arange(nv + 1))
        else:
            self.sink_event_time = None
            self.sink_event_pair = None
            self.sink_event_indptr = None

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


def _intern(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """Dense codes of ``ids``; ids new to ``index`` join it in order of first appearance."""
    fresh = list(itertools.filterfalse(index.__contains__, dict.fromkeys(ids)))
    index.update(zip(fresh, itertools.count(len(index))))
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


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
        self.batches: list[tuple[np.ndarray, ...]] = []
        self.n_ts = self.n_rated = 0

    def coerce(self, pos: int, rec):
        """The record as (user, object, timestamp, rating), or None after
        reporting ``{unit} {pos}: ...`` when it is malformed or off the scale."""
        try:
            user, obj, ts, rating = _coerce_record(rec)
            if rating is not None and self.scale is not None and rating not in self.scale:
                raise DataError(f"rating {rating} outside declared scale")
        except DataError as exc:
            msg = f"{self.unit} {pos}: {exc}"
            if self.diagnostics is not None:
                self.diagnostics.append(msg)
            else:
                logger.warning("ingest: %s", msg)
            return None
        return user, obj, ts, rating

    def add(self, users: list[str], objs: list[str], times: np.ndarray | None,
            ratings: np.ndarray | None) -> None:
        """Append a batch of accepted events."""
        self.batches.append((_intern(self.user_index, users),
                             _intern(self.object_index, objs), times, ratings))
        if times is not None:
            self.n_ts += int(np.count_nonzero(times >= 0))
        if ratings is not None:
            self.n_rated += int(np.count_nonzero(~np.isnan(ratings)))

    def graph(self) -> BipartiteGraph:
        n = sum(batch[0].size for batch in self.batches)
        if n == 0:
            raise DataError("empty input")
        if 0 < self.n_ts < n:
            raise DataError("timestamps must be present on all records or on none")
        if 0 < self.n_rated < n:
            raise DataError("ratings must be present on all records or on none")
        # every non-empty batch holds a column that all events hold
        users, objs, times, ratings = (
            np.concatenate([c for c in column if c is not None]) if present else None
            for column, present in zip(zip(*self.batches), (n, n, self.n_ts, self.n_rated)))
        self.batches.clear()
        scale = self.scale
        if ratings is not None and scale is None:
            scale = RatingScale(np.unique(ratings))
        return BipartiteGraph(list(self.user_index), list(self.object_index), users, objs,
                              times, ratings, scale=scale)


def _record_batch(rows: list[tuple]) -> tuple:
    """``_Columns.add`` arguments for coerced (user, object, timestamp, rating) rows."""
    users, objs, ts, rs = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    return (users, objs, _optional_column(ts, -1, np.int64),
            _optional_column(rs, np.nan, np.float64))


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

# Characters read per chunk of a delimited file; a chunk always ends at the
# end of a line.
CHUNK_CHARS = 1 << 18


def _line_fields(line: str, lineno: int, delim: str) -> list[str] | None:
    """The stripped fields of one line, or None for a blank line or a header
    on line 1."""
    if not line.strip():
        return None
    parts = list(map(str.strip, line.split(delim)))
    if lineno == 1 and any(p.lower() in _HEADER_WORDS for p in parts):
        return None
    return parts


class _DelimitedReader:
    """Chunk-at-a-time columnar reader behind ``read_delimited``.

    Each chunk is checked as a whole over its UTF-8 bytes. A line takes the
    columnar path when it has the file's field count, no empty field, and no
    byte outside printable ASCII other than the delimiter, and when its
    timestamp parses with ``int`` into [0, 2^53) and its rating is finite (and
    on the declared scale). Such a line reads exactly as ``_coerce_record``
    would read it. Every other line (blank lines, a header on line 1,
    non-ASCII text, padded fields, anything malformed) goes through
    ``_line_fields`` and ``_coerce_record`` at its own position, so
    diagnostics and the first-appearance order of ids do not depend on which
    path a line took.
    """

    def __init__(self, columns: _Columns):
        self.columns = columns
        self.lines_read = 0
        self.delim: str | None = None
        # the field count of the first clean line with two to four fields; 0 until one is seen
        self.n_fields = 0

    def _choose_delimiter(self, text: str) -> bool:
        """Take the delimiter from the first non-blank line; False while
        every line so far is blank."""
        rest = text.lstrip()
        if not rest:
            return False
        at = len(text) - len(rest)
        end = text.find("\n", at)
        line = text[text.rfind("\n", 0, at) + 1:end if end >= 0 else None]
        self.delim = "\t" if "\t" in line else ","
        return True

    def feed(self, text: str) -> None:
        """Read one chunk of whole lines."""
        first = self.lines_read
        if not text.endswith("\n"):
            text += "\n"
        self.lines_read += text.count("\n")
        if self.delim is None and not self._choose_delimiter(text):
            return
        suspect = self._suspect_lines(text, first == 0)
        lines = text.split("\n") if suspect.any() else None
        fast_at = np.flatnonzero(~suspect)
        fast = None
        if fast_at.size:
            clean = text if lines is None else "\n".join(
                itertools.compress(lines, ~suspect)) + "\n"
            fast, ok = self._parse_clean(clean, fast_at.size)
            if not ok.all():
                suspect[fast_at[~ok]] = True
                fast_at = fast_at[ok]
                if lines is None:
                    lines = text.split("\n")

        rows, rows_at = [], []
        delim, coerce = self.delim, self.columns.coerce
        for i in np.flatnonzero(suspect).tolist():
            parts = _line_fields(lines[i], first + i + 1, delim)
            if parts is not None and (row := coerce(first + i + 1, parts)) is not None:
                rows.append(row)
                rows_at.append(i)
        slow = _record_batch(rows)
        if fast is None:
            self.columns.add(*slow)
        elif not rows:
            self.columns.add(*fast)
        else:
            order = np.argsort(np.concatenate((fast_at, rows_at)), kind="stable")
            self.columns.add(*_merge(fast, slow, order))

    def _suspect_lines(self, text: str, has_line_1: bool) -> np.ndarray:
        """Per line of the chunk, whether it must take the per-line path."""
        delim = self.delim
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        newline = data == 10
        ends = np.flatnonzero(newline)
        is_delim = data == ord(delim)
        fields = np.diff(np.searchsorted(np.flatnonzero(is_delim), ends), prepend=0) + 1
        # controls, space and non-ASCII bytes, the separators aside (the
        # subtraction wraps the bytes below 33 round to the top)
        separator = newline | is_delim
        odd = data - np.uint8(33) > 94
        odd &= ~separator
        # an empty field puts two separators side by side
        odd[0] |= separator[0]
        odd[1:] |= separator[1:] & separator[:-1]
        suspect = np.zeros(ends.size, dtype=bool)
        suspect[np.searchsorted(ends, np.flatnonzero(odd))] = True
        if has_line_1:
            suspect[0] |= _line_fields(text[:text.find("\n")], 1, delim) is None
        if not self.n_fields:
            usable = np.flatnonzero(~suspect & (fields >= 2) & (fields <= 4))
            if usable.size:
                self.n_fields = int(fields[usable[0]])
        suspect |= fields != self.n_fields
        return suspect

    def _parse_clean(self, text: str, n: int) -> tuple[tuple, np.ndarray]:
        """``_Columns.add`` arguments for the ``n`` lines of ``text``, which
        passed ``_suspect_lines``, and the mask of lines whose timestamp and
        rating read exactly; the arguments cover only those lines."""
        k, delim = self.n_fields, self.delim
        cells = text.replace("\n", delim).split(delim)
        cells.pop()
        users, objs = cells[0::k], cells[1::k]
        ok = np.ones(n, dtype=bool)
        times = ratings = None
        if k >= 3:
            times = _parse_timestamps(cells[2::k])
            ok &= times >= 0
        if k == 4:
            ratings, rated = _parse_ratings(cells[3::k], self.columns.scale)
            ok &= rated
        del cells
        if not ok.all():
            users = list(itertools.compress(users, ok))
            objs = list(itertools.compress(objs, ok))
            times = None if times is None else times[ok]
            ratings = None if ratings is None else ratings[ok]
        return (users, objs, times, ratings), ok


def _int_or_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        return -1
    return value if 0 <= value < _TIMESTAMP_LIMIT else -1


def _parse_timestamps(column: list[str]) -> np.ndarray:
    """int() of each field where it is an integer in [0, 2^53), else -1."""
    try:
        times = np.fromiter(map(int, column), np.int64, len(column))
    except (ValueError, OverflowError):
        return np.fromiter(map(_int_or_negative, column), np.int64, len(column))
    times[(times < 0) | (times >= _TIMESTAMP_LIMIT)] = -1
    return times


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_ratings(column: list[str], scale: RatingScale | None):
    """float() of each field, parsing each distinct string once, and a mask
    of the finite ones on ``scale``."""
    code = dict(zip(dict.fromkeys(column), itertools.count()))
    values = np.fromiter(map(_float_or_nan, code), np.float64, len(code))
    good = np.isfinite(values)
    if scale is not None:
        good &= np.fromiter((v in scale for v in values.tolist()), bool, values.size)
    codes = np.fromiter(map(code.__getitem__, column), np.intp, len(column))
    return values[codes], good[codes]


def _merge(a: tuple, b: tuple, order: np.ndarray) -> tuple:
    """Two batches of ``_Columns.add`` arguments as one, rows taken in ``order``
    of their concatenation."""
    users = np.asarray(a[0] + b[0], dtype=object)[order].tolist()
    objs = np.asarray(a[1] + b[1], dtype=object)[order].tolist()

    def column(i, fill):
        if a[i] is None and b[i] is None:
            return None
        parts = [np.full(len(x[0]), fill) if x[i] is None else x[i] for x in (a, b)]
        return np.concatenate(parts)[order]

    return users, objs, column(2, -1), column(3, np.nan)


def read_delimited(path: str | Path, scale: RatingScale | None = None,
                   diagnostics: list[str] | None = None) -> BipartiteGraph:
    """ingest the ``user,object[,timestamp[,rating]]`` rows of a comma- or
    tab-separated file; a diagnostic names the file line.

    The delimiter is a tab when the first non-blank line holds one, else a
    comma; fields are stripped of surrounding whitespace; blank lines are
    skipped, and so is line 1 when a field there is a header word. The file
    is read in chunks of whole lines and parsed column by column (see
    ``_DelimitedReader``); the ids, arrays and diagnostics are those of
    passing each line through ``ingest`` in turn.
    """
    columns = _Columns("line", scale, diagnostics)
    reader = _DelimitedReader(columns)
    with open(path, "r", encoding="utf-8") as fh:
        while text := fh.read(CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()
            reader.feed(text)
            del text
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
