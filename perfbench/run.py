"""fraudsift benchmark runner: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload detect_csv_1m --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fraudsift is imported from its
``src`` directory, nothing is installed. The runner sets up the workload's
inputs several times (``setup_s`` is the median), then repeats the timed
section until ``--seconds`` have passed (at least once) and checks every
output. ``attempted`` counts the detections of one repetition; every other
repetition must give the same outputs. The last line of standard output is
the JSON result. With ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from the probes in probes.py. A
``digest`` line before it names the outputs, so two runs can be compared
for reproducibility.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(__file__).resolve().parent / "work"
# Set-up repeats at least this often and for at least this long; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Tune and compare on seeds 1..10; this one only confirms a claim made on them.
HELDOUT_SEED = 7919
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


class PeakRss:
    """Peak resident memory above the level at start(), in MB.

    A thread samples /proc/self/statm; the process high-water mark replaces
    the sample when the section raised it, so short peaks are not missed.
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.peak = max(self.peak, self._rss())

    def start(self) -> None:
        _release_free_memory()
        self.base = self.peak = self._rss()
        self._hwm_before = _maxrss()
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        peak = max(self.peak, self._rss())
        hwm = _maxrss()
        if hwm > self._hwm_before:
            peak = max(peak, hwm)
        return (peak - self.base) / 2**20


def _release_free_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS, so the
    baseline does not depend on what set-up left behind."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL("libc.so.6").malloc_trim(0)


def _maxrss() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program():
    """Import fraudsift from this checkout's src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "fraudsift" / "__init__.py").is_file():
        raise SystemExit(f"error: no fraudsift sources under {src}")
    sys.path.insert(0, str(src))
    import fraudsift

    if Path(fraudsift.__file__).resolve().parent != src / "fraudsift":
        raise SystemExit(f"error: imported fraudsift from {fraudsift.__file__}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(probe, checked, iterations: int, setup_parts: dict, traced_rate: float):
    own = probe.self_times()
    counts = probe.counts
    per = 1.0 / iterations

    def seconds(span):
        return metric(own.get(span, 0.0) * per, "s")

    def count(name):
        return metric(counts.get(name, 0) * per, "count")

    steps = counts.get("shave.steps", 0)
    out = {
        "graph.read_s": seconds("graph.read"),
        "graph.events": count("graph.events"),
        "graph.rejected_lines": count("graph.rejected_lines"),
        "contrast.context_s": seconds("contrast.context"),
        "contrast.context_calls": count("contrast.context_calls"),
        "temporal.sinks_profiled": count("temporal.sinks_profiled"),
        "temporal.sinks_with_burst": count("temporal.sinks_with_burst"),
        "detector.matricize_s": seconds("detector.matricize"),
        "detector.design_nnz": count("detector.design_nnz"),
        "detector.design_cols": count("detector.design_cols"),
        "detector.fast_greedy_s": seconds("detector.fast_greedy"),
        "spectral.seed_s": seconds("spectral.seed"),
        "spectral.n_seeds": count("spectral.n_seeds"),
        "spectral.seed_users": count("spectral.seed_users"),
        "spectral.fallbacks": count("spectral.fallbacks"),
        "shave.s": seconds("shave"),
        "shave.calls": count("shave.calls"),
        "shave.steps": count("shave.steps"),
        "shave.us_per_step": metric(own.get("shave", 0.0) / steps * 1e6 if steps else 0.0, "us"),
        "shave.kappa_rescales": count("shave.kappa_rescales"),
        "shave.degenerate_seeds": count("shave.degenerate_seeds"),
        "shave.winner_step_share": metric(
            counts.get("shave.winner_steps", 0) / steps if steps else 0.0, "ratio"),
        "evalkit.sweep_s": seconds("evalkit.sweep"),
        "evalkit.inject_s": seconds("evalkit.inject"),
        "evalkit.points": metric(checked.layer.get("evalkit.points", 0), "count"),
        "evalkit.users_curve_auc": metric(checked.layer.get("evalkit.users_curve_auc", 0.0), "area"),
        "evalkit.sinks_curve_auc": metric(checked.layer.get("evalkit.sinks_curve_auc", 0.0), "area"),
        "output.rank_s": seconds("output.rank"),
        "synth.generate_s": metric(setup_parts.get("synth.generate_s", 0.0), "s"),
        "synth.write_csv_s": metric(setup_parts.get("synth.write_csv_s", 0.0), "s"),
        "trace.events_per_s": metric(traced_rate, "1/s"),
        "trace.spans": metric(len(probe.spans) * per, "count"),
    }
    return out


def run(args) -> int:
    from probes import Probe
    from workloads import WORKLOADS, SetupTimer

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        setup_totals, setup_parts = [], []
        while len(setup_totals) < SETUP_REPEATS or sum(setup_totals) < SETUP_MIN_S:
            timer = SetupTimer()
            t0 = time.perf_counter()
            workload.setup(timer)
            setup_totals.append(time.perf_counter() - t0)
            setup_parts.append(timer.seconds)
        parts = {k: statistics.median(p[k] for p in setup_parts) for k in setup_parts[0]}

        probe = Probe(traced=bool(args.trace))
        probe.install()
        rates, seconds, checks = [], [], []
        memory = PeakRss()
        memory.start()
        began = time.perf_counter()
        try:
            while not checks or time.perf_counter() - began < args.seconds:
                probe.begin_iteration()
                t0 = time.perf_counter()
                events, outcome = workload.run(probe)
                seconds.append(time.perf_counter() - t0 - probe.check_s)
                rates.append(events / seconds[-1])
                checks.append(workload.check(outcome, probe))
                del outcome
        finally:
            peak_mb = memory.stop()
            probe.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    # Every repetition is checked, but only the first one's detections are
    # counted: the others must reproduce them exactly, so attempted and
    # failed depend on the seed alone, not on how many repetitions fit.
    attempts = checks[0].attempts
    failed = sum(a.failed for a in attempts)
    for a in attempts:
        if a.failed:
            print(f"failed: {a.reason}", file=sys.stderr)
    digests = {c.digest for c in checks}
    reproducible = len(digests) == 1
    if not reproducible:
        print("error: outputs differ between iterations of one run", file=sys.stderr)
    correct = reproducible and all(a.valid for c in checks for a in c.attempts)
    rate = statistics.median(rates)
    print(f"digest {args.workload} size={args.size} seed={args.seed} {checks[0].digest}")
    print(f"iterations {len(checks)} seconds {' '.join(f'{t:.3f}' for t in seconds)} "
          f"attempts {len(attempts)} failed {failed}")

    if args.trace:
        metrics = layer_metrics(probe, checks[0], len(checks), parts, rate)
    else:
        metrics = {
            "events_per_s": metric(rate, "1/s"),
            "setup_s": metric(statistics.median(setup_totals), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "user_f1": metric(statistics.median(c.user_f1 for c in checks), "ratio"),
            "sink_auc": metric(statistics.median(c.sink_auc for c in checks), "ratio"),
            "ok_frac": metric(1.0 - failed / len(attempts), "ratio"),
        }
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
