"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py --seed 1            # all workloads, full size
    python3 perfbench/report.py --seed 7919         # the held-out seed (run.HELDOUT_SEED)
    python3 perfbench/report.py --size smoke --seconds 0

For each workload this runs run.py twice with the same seed, ``--trace 0``
(end-to-end metrics) and ``--trace 1`` (per-layer metrics), prints each
metric by name with its unit, the tracing overhead (traced minus untraced
events_per_s) and whether both runs gave the same output digest. It exits
non-zero when a run fails, reports incorrect outputs, or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}")
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, plain_digest = run_once(workload, args.seed, args.seconds, 0, args.size)
        traced, traced_digest = run_once(workload, args.seed, args.seconds, 1, args.size)
        print(f"== {workload} (seed {args.seed}, size {args.size}): correct={plain['correct']}"
              f"/{traced['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
        untraced_rate = plain["metrics"]["events_per_s"]["value"]
        overhead = traced["metrics"]["trace.events_per_s"]["value"] - untraced_rate
        print(f"  {'trace.overhead_events_per_s':28s} {overhead:>16.6g} 1/s "
              f"({overhead / untraced_rate:+.2%} of untraced)")
        same = plain_digest == traced_digest
        print(f"  reproducible: {'yes' if same else 'NO'} (digest {plain_digest[:16]})")
        ok &= plain["correct"] and traced["correct"] and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
