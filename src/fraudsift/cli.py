"""Command-line entry points: detect, inject, sweep, bench.

Exit codes: 0 success, 2 usage error, 3 data error; 4 is reserved and never
returned.
All randomness fans out from the single --seed via numpy SeedSequence.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .detector import DetectorConfig, fast_greedy
from .evalkit import density_sweep
from .graph import DataError, RatingScale, concat_ranges, read_delimited, write_delimited
from .synth import InjectionConfig, bench_graph, inject, write_labels
from .temporal import profile_payloads

logger = logging.getLogger(__name__)


def _parse_signals(value: str | None) -> tuple[str, ...] | None:
    if value is None or value == "auto":
        return None
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _parse_floats(value: str, flag: str) -> list[float]:
    try:
        out = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError(f"{flag} expects a comma-separated list of numbers")
    if not out:
        raise click.UsageError(f"{flag} must list at least one value")
    return out


def _parse_cap(value: str) -> float | None:
    if value.lower() in ("none", "off"):
        return None
    try:
        return float(value)
    except ValueError:
        raise click.UsageError("--cap-exponent expects a number or 'none'")


def _load_graph(input_path, scale: str | None, neutral: str | None):
    """Read a dataset, honoring an explicit scale declaration and/or a neutral
    override (the latter also applies to a scale inferred from the data)."""
    neutral_vals = _parse_floats(neutral, "--neutral") if neutral else None
    declared = None
    if scale is not None:
        parts = scale.split(":")
        if len(parts) == 3:
            try:
                lo, hi, step = (float(p) for p in parts)
            except ValueError:
                raise click.UsageError("--scale expects lo:hi:step or a comma-separated "
                                       "list of numbers")
            declared = RatingScale.from_range(lo, hi, step, neutral=neutral_vals)
        else:
            declared = RatingScale(_parse_floats(scale, "--scale"), neutral=neutral_vals)
    graph = read_delimited(input_path, scale=declared)
    if declared is None and neutral_vals is not None and graph.has_ratings:
        # the one change to a built graph: at load time, before any run reads it
        graph.scale = RatingScale(graph.scale.values, neutral=neutral_vals)
    return graph


def _detector_config(base, num_seeds, signals, time_bin, cap_exponent) -> DetectorConfig:
    return DetectorConfig(
        base=base, num_seeds=num_seeds, signals=_parse_signals(signals),
        time_bin=time_bin, cap_exponent=_parse_cap(cap_exponent))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _neutral_echo(graph) -> list[float] | None:
    """The neutral scores rating tables exclude, or None without ratings."""
    return sorted(graph.scale.neutral) if graph.has_ratings else None


def _config_echo(config: DetectorConfig, seed: int, **extra) -> dict:
    echo = asdict(config)
    echo["seed"] = seed
    echo.update(extra)
    echo["version"] = __version__
    return echo


_DEFAULTS = DetectorConfig()

detector_options = [
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
                 help="Master RNG seed; all randomness derives from it."),
    click.option("--base", type=float, default=_DEFAULTS.base, show_default=True,
                 help="Exponential scaling base b."),
    click.option("--num-seeds", type=int, default=_DEFAULTS.num_seeds, show_default=True,
                 help="Number of singular vectors used for seeding."),
    click.option("--signals", default="auto", show_default=True,
                 help="Comma list from alpha,phi,kappa, or 'auto'."),
    click.option("--time-bin", type=float, default=_DEFAULTS.time_bin, show_default=True,
                 help="Matricization time bin in seconds."),
    click.option("--cap-exponent", default=str(_DEFAULTS.cap_exponent), show_default=True,
                 help="Seed size cap exponent over |U|, or 'none'."),
]

# a file there is a usage error, not a failed mkdir
output_dir_option = click.option("--output-dir", "out", required=True, metavar="PATH",
                                 type=click.Path(file_okay=False, path_type=Path))

# a dataclass field's default is its class attribute
injection_options = [
    click.option("--n-objects", type=int, default=InjectionConfig.n_objects, show_default=True),
    click.option("--ratings-per-object", type=int, default=InjectionConfig.ratings_per_object,
                 show_default=True),
    click.option("--max-target-indegree", type=int,
                 default=InjectionConfig.max_target_indegree, show_default=True),
]


def _with_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable info logging.")
def cli(verbose: bool) -> None:
    """Fraud-block detection on bipartite rating graphs."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")


@cli.command("detect")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@output_dir_option
@click.option("--scale", default=None, help="Rating scale: lo:hi:step or comma list.")
@click.option("--neutral", default=None, help="Comma list of neutral scores.")
@click.option("--dump-profiles", type=click.IntRange(min=0), default=0, show_default=True,
              help="Also write burst/drop profiles for the N top-ranked objects.")
@_with_options(detector_options)
def cmd_detect(input_path, out, scale, neutral, dump_profiles, seed, base,
               num_seeds, signals, time_bin, cap_exponent) -> None:
    """Detect the most suspicious user block and rank objects."""
    out.mkdir(parents=True, exist_ok=True)
    config = _detector_config(base, num_seeds, signals, time_bin, cap_exponent)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    graph = _load_graph(input_path, scale, neutral)
    timings["ingest_s"] = time.perf_counter() - t0
    if dump_profiles and not graph.has_timestamps:
        raise DataError("--dump-profiles requires timestamps; the input has none")

    t0 = time.perf_counter()
    result = fast_greedy(graph, config)
    timings["detect_s"] = time.perf_counter() - t0

    if dump_profiles:
        top = [oid for oid, _ in result.top_objects(graph, dump_profiles)]
        vi = np.asarray([graph.object_index(oid) for oid in top], dtype=np.int64)
        starts, stops = graph.sink_event_indptr[vi], graph.sink_event_indptr[vi + 1]
        times = graph.sink_event_time[concat_ranges(starts, stops)].astype(np.float64)
        indptr = np.concatenate(([0], np.cumsum(stops - starts)))
        _write_json(out / "profiles.json", {"profiles": profile_payloads(top, times, indptr)})

    with open(out / "users.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id\n")
        for uid in result.users:
            fh.write(uid + "\n")
    with open(out / "objects.csv", "w", encoding="utf-8") as fh:
        fh.write("object_id,score,rank\n")
        for rank, (oid, score) in enumerate(result.top_objects(graph), start=1):
            fh.write(f"{oid},{score:.10g},{rank}\n")
    _write_json(out / "run.json", {
        "command": "detect",
        "input": str(input_path),
        "objective": result.objective,
        "n_users_detected": len(result.users),
        "meta": {k: v for k, v in result.meta.items() if k != "singular_values"},
        "config": _config_echo(config, seed, neutral=_neutral_echo(graph)),
        "timings": timings,
    })
    click.echo(f"detected {len(result.users)} users, objective {result.objective:.6g}")


@cli.command("inject")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@output_dir_option
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n-fraudsters", type=int, required=True)
@_with_options(injection_options)
@click.option("--camouflage-ratio", type=float, default=InjectionConfig.camouflage_ratio,
              show_default=True)
@click.option("--rating-values", default=",".join(map(str, InjectionConfig.rating_values)),
              show_default=True)
@click.option("--surge-compression", type=float, default=InjectionConfig.surge_compression,
              show_default=True)
@click.option("--scale", default=None)
def cmd_inject(input_path, out, seed, n_fraudsters, n_objects,
               ratings_per_object, max_target_indegree, camouflage_ratio,
               rating_values, surge_compression, scale) -> None:
    """Plant a labeled fraud block into a dataset."""
    out.mkdir(parents=True, exist_ok=True)
    graph = _load_graph(input_path, scale, None)
    cfg = InjectionConfig(
        n_fraudsters=n_fraudsters, n_objects=n_objects,
        ratings_per_object=ratings_per_object,
        max_target_indegree=max_target_indegree,
        camouflage_ratio=camouflage_ratio,
        rating_values=tuple(_parse_floats(rating_values, "--rating-values")),
        surge_compression=surge_compression, rng_seed=seed)
    injected, truth = inject(graph, cfg)
    write_delimited(injected, out / "injected.csv")
    write_labels(truth, out / "labels.csv")
    _write_json(out / "run.json", {
        "command": "inject",
        "input": str(input_path),
        "config": {**asdict(cfg), "seed": seed, "version": __version__},
        "n_events_before": graph.n_events,
        "n_events_after": injected.n_events,
        "density": cfg.density,
    })
    click.echo(f"injected {injected.n_events - graph.n_events} events "
               f"at density {cfg.density:.4g}")


@cli.command("sweep")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@output_dir_option
@click.option("--densities", required=True,
              help="Comma list of injected densities in (0, 1].")
@_with_options(injection_options)
@click.option("--scale", default=None)
@click.option("--neutral", default=None)
@_with_options(detector_options)
def cmd_sweep(input_path, out, densities, n_objects, ratings_per_object,
              max_target_indegree, scale, neutral, seed, base, num_seeds, signals,
              time_bin, cap_exponent) -> None:
    """Accuracy-vs-density curves over repeated injections."""
    out.mkdir(parents=True, exist_ok=True)
    grid = _parse_floats(densities, "--densities")
    config = _detector_config(base, num_seeds, signals, time_bin, cap_exponent)
    graph = _load_graph(input_path, scale, neutral)
    proto = InjectionConfig(
        n_fraudsters=max(ratings_per_object, 1), n_objects=n_objects,
        ratings_per_object=ratings_per_object,
        max_target_indegree=max_target_indegree)
    result = density_sweep(graph, grid, config, inject_proto=proto, seed=seed)

    with open(out / "curve.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["density", "n_fraudsters", "user_f1", "sink_auc", "error"])
        for p in result.points:
            writer.writerow([p.density, p.n_fraudsters,
                             "" if p.user_f1 is None else f"{p.user_f1:.6f}",
                             "" if p.sink_auc is None else f"{p.sink_auc:.6f}",
                             p.error or ""])
    summary = result.summary()
    summary["config"] = _config_echo(config, seed, input=str(input_path),
                                     neutral=_neutral_echo(graph))
    _write_json(out / "summary.json", summary)

    def show(key):
        return f"{key}={'—' if summary[key] is None else format(summary[key], '.4g')}"

    click.echo(f"users_auc={summary['users_auc']:.4f} sinks_auc={summary['sinks_auc']:.4f} "
               f"{show('lowest_detection_density_users')} "
               f"{show('lowest_detection_density_sinks')}")


@cli.command("bench")
@click.option("--sizes", required=True, help="Comma list of target edge counts.")
@output_dir_option
@_with_options(detector_options)
def cmd_bench(sizes, out, seed, base, num_seeds, signals, time_bin,
              cap_exponent) -> None:
    """Time the full detector on growing synthetic graphs and fit the scaling slope."""
    out.mkdir(parents=True, exist_ok=True)
    grid = _parse_floats(sizes, "--sizes")
    if not all(math.isfinite(s) and s.is_integer() and s >= 1 for s in grid):
        raise click.UsageError("--sizes must be whole numbers of at least 1")
    grid = [int(s) for s in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise click.UsageError("--sizes must be strictly increasing")
    config = _detector_config(base, num_seeds, signals, time_bin, cap_exponent)

    children = np.random.SeedSequence(seed).spawn(len(grid))
    rows = []
    for target, child in zip(grid, children):
        graph, _ = bench_graph(target, int(child.generate_state(1)[0]))
        t0 = time.perf_counter()
        result = fast_greedy(graph, config)
        elapsed = time.perf_counter() - t0
        seed_sizes = result.meta.get("seed_sizes", [])
        rows.append({
            "target_edges": target,
            "edges": graph.n_events,
            "n_users": graph.n_users,
            "seconds": elapsed,
            "max_seed_size": max(seed_sizes) if seed_sizes else 0,
            "seed_cap": result.meta.get("cap"),
        })
        click.echo(f"|E|={graph.n_events} -> {elapsed:.2f}s "
                   f"(max seed {rows[-1]['max_seed_size']})")

    with open(out / "bench.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    slope = None
    if len(rows) >= 2:
        xs = np.log([r["edges"] for r in rows])
        ys = np.log([max(r["seconds"], 1e-9) for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    _write_json(out / "bench.json", {
        "command": "bench",
        "rows": rows,
        "loglog_slope": slope,
        "config": _config_echo(config, seed),
    })
    click.echo(f"log-log slope: {slope if slope is None else round(slope, 3)}")


def main(argv=None) -> int:
    try:
        cli(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 130
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
