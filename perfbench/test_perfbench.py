"""The benchmark's own tests, on the tiny ``--size smoke`` inputs.

Each run must print the metrics BENCHMARK.json names, with their units,
give well-formed outputs, and give the same digest when run again with the
same seed. Quality floors are sized for the full workloads, so smoke runs
may report missed floors in ``failed``; they are not asserted here.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Detections one repetition of the timed section checks: one detect, or the sweep's points.
ATTEMPTS = {"detect_csv_1m": 1, "topology_uncapped": 1, "density_sweep": 5}


def run(cwd: Path, workload: str, trace: int, seed: int = 3, seconds: float = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@functools.cache
def smoke(workload: str, trace: int):
    """(result, digest) of a smoke run from the repository root; it lasts
    long enough for the timed section to repeat."""
    proc = run(ROOT, workload, trace, seconds=2)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_contract_and_repeats(workload):
    plain, plain_digest = smoke(workload, trace=0)
    traced, traced_digest = smoke(workload, trace=1)
    for result, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        # repetitions reproduce the first one's detections and are not counted again
        assert result["attempted"] == ATTEMPTS[workload]
        assert 0 <= result["failed"] <= result["attempted"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
    assert plain["metrics"]["events_per_s"]["value"] > 0
    assert plain["metrics"]["setup_s"]["value"] > 0
    assert plain_digest == traced_digest


def test_bypassed_layers_stay_idle():
    topology = smoke("topology_uncapped", trace=1)[0]["metrics"]
    sweep = smoke("density_sweep", trace=1)[0]["metrics"]
    # fast_greedy always builds a SignalContext; with alpha alone it profiles no sink
    assert topology["temporal.sinks_profiled"]["value"] == 0
    assert topology["detector.matricize_s"]["value"] == 0
    assert topology["shave.kappa_rescales"]["value"] == 0
    assert sweep["graph.read_s"]["value"] == 0
    assert sweep["shave.kappa_rescales"]["value"] > 0


def test_svd_fallback_warnings_are_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    from fraudsift import detector
    from probes import Probe

    probe = Probe(traced=False)
    probe.install()
    try:
        matrix = np.random.default_rng(0).random((40, 30))
        detector.svd_seeds(matrix, 3, tol=1e-12, max_iter=1)
    finally:
        probe.uninstall()
    assert probe.counts["spectral.fallbacks"] == 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work"))
    proc = run(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
