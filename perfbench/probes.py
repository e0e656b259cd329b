"""Layer probes for the benchmark.

The probes replace fraudsift's module attributes in place, so the program's
own call path runs through them: ``fraudsift.detector.{SignalContext,
matricize, svd_seeds, greedy_shaving}`` and ``fraudsift.evalkit.{inject,
fast_greedy}``. Every probe records what the benchmark's correctness checks
need (each detection, its output digest and the seeds it was shaved from)
and the layer counts.
Only a traced probe also reads the clock; its spans (name, start, end,
parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from fraudsift import detector, evalkit

FALLBACK_MESSAGE = "best-effort singular vectors"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Detection:
    """One fast_greedy call: its result, its output digest and its seeds."""

    result: detector.DetectionResult
    digest: str
    seeds: list


def output_digest(users, ranked) -> str:
    """Digest of the sorted detected users and the full object ranking."""
    h = hashlib.sha256()
    h.update("\n".join(sorted(users)).encode())
    h.update(b"\n--\n")
    h.update("\n".join(f"{oid},{score!r}" for oid, score in ranked).encode())
    return h.hexdigest()


class _FallbackCounter(logging.Handler):
    """Counts the detector's best-effort SVD warnings; SVD iterations and
    residuals are not visible from outside the package."""

    def __init__(self, probe: "Probe"):
        super().__init__(level=logging.WARNING)
        self.probe = probe

    def emit(self, record: logging.LogRecord) -> None:
        if FALLBACK_MESSAGE in record.getMessage():
            self.probe.counts["spectral.fallbacks"] += 1


class Probe:
    """Installs the layer probes for one benchmark run and holds what they saw."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.detections: list[Detection] = []
        self.injected_events = 0
        self.check_s = 0.0  # time the checks took inside the timed section
        self._seeds: list = []
        self._restore: list = []
        self._fallbacks = _FallbackCounter(self)

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> Counter:
        """Seconds per span name, each span's duration less its children's."""
        own = Counter()
        for s in self.spans:
            own[s.name] += s.end - s.start
            if s.parent is not None:
                own[self.spans[s.parent].name] -= s.end - s.start
        return own

    def begin_iteration(self) -> None:
        """Forget the outputs of the previous timed iteration; spans and
        counts accumulate over the run."""
        self.detections.clear()
        self.injected_events = 0
        self.check_s = 0.0

    # -- probes -------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out
        return probe

    def _after_context(self, ctx, graph, *_):
        self.counts["contrast.context_calls"] += 1
        if ctx.use_phi:
            self.counts["temporal.sinks_profiled"] += int(
                np.count_nonzero(ctx.sink_event_total >= 3))
            self.counts["temporal.sinks_with_burst"] += int(
                np.count_nonzero(ctx.sink_phi_total > 0))

    def _after_matricize(self, out, *_):
        design, _labels = out
        self.counts["detector.design_nnz"] += int(design.nnz)
        self.counts["detector.design_cols"] += int(design.shape[1])

    def _after_seeds(self, out, *_):
        seeds, _meta = out
        self._seeds = seeds
        self.counts["spectral.n_seeds"] += len(seeds)
        self.counts["spectral.seed_users"] += int(sum(s.size for s in seeds))

    def _after_shave(self, result, *_):
        self.counts["shave.calls"] += 1
        self.counts["shave.steps"] += result.meta["seed_size"]
        self.counts["shave.kappa_rescales"] += result.meta["kappa_rescales"]

    def _after_inject(self, out, *_):
        self.injected_events += out[0].n_events

    def _after_detect(self, result, graph, *_):
        t0 = time.perf_counter()
        digest = output_digest(result.users, result.top_objects(graph))
        self.check_s += time.perf_counter() - t0
        self.detections.append(Detection(result, digest, self._seeds))
        self.counts["shave.degenerate_seeds"] += result.meta["n_degenerate_seeds"]
        self.counts["shave.winner_steps"] += result.meta["seed_size"]

    def install(self) -> None:
        """Replace the layer entry points; ``self.fast_greedy`` is the probed
        detector for callers outside the package."""
        patches = [
            (detector, "SignalContext", "contrast.context", self._after_context),
            (detector, "matricize", "detector.matricize", self._after_matricize),
            (detector, "svd_seeds", "spectral.seed", self._after_seeds),
            (detector, "greedy_shaving", "shave", self._after_shave),
            (evalkit, "inject", "evalkit.inject", self._after_inject),
        ]
        for module, attr, name, after in patches:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, after))
        self.fast_greedy = self._wrap(detector.fast_greedy, "detector.fast_greedy",
                                      self._after_detect)
        self._restore.append((evalkit, "fast_greedy", evalkit.fast_greedy))
        evalkit.fast_greedy = self.fast_greedy
        logging.getLogger(detector.__name__).addHandler(self._fallbacks)

    def uninstall(self) -> None:
        logging.getLogger(detector.__name__).removeHandler(self._fallbacks)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
