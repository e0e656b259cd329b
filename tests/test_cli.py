from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import oracles
from fraudsift import DetectorConfig, cli, gen_hyperbolic, write_delimited
from fraudsift.cli import main
from fraudsift.temporal import MAX_BINS


def write_planted_fixture(path: Path) -> set[str]:
    """Dense planted block plus sparse noise, topology-only."""
    rng = np.random.default_rng(0)
    lines = []
    planted = {f"f{i:02d}" for i in range(12)}
    for i in range(12):
        for j in range(8):
            lines.append(f"f{i:02d},t{j}")
    for k in range(120):
        lines.append(f"n{rng.integers(0, 60)},b{rng.integers(0, 50)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return planted


def write_timestamped_base(path: Path, seed=1) -> None:
    g, _ = gen_hyperbolic(400, 200, power_exponent=0.5, density_target=0.5,
                          rng_seed=seed, block_shape=(80, 50),
                          noise_avg_degree=2.0, timestamps=True, ratings=True)
    write_delimited(g, path)


def test_detect_recovers_planted_block(tmp_path):
    data = tmp_path / "data.csv"
    planted = write_planted_fixture(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--num-seeds", "4"])
    assert rc == 0
    users = (out / "users.csv").read_text().splitlines()[1:]
    assert set(users) == planted
    run = json.loads((out / "run.json").read_text())
    assert run["objective"] > 0
    assert run["config"]["seed"] == 0
    assert run["config"]["neutral"] is None
    ranked = (out / "objects.csv").read_text().splitlines()[1:]
    top8 = {row.split(",")[0] for row in ranked[:8]}
    assert top8 == {f"t{j}" for j in range(8)}


def test_detect_rerun_reproduces_outputs(tmp_path):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["detect", "--input", str(data), "--output-dir", str(out)]) == 0
        outs.append((out / "users.csv").read_bytes() + (out / "objects.csv").read_bytes())
    assert outs[0] == outs[1]


def test_detect_echoes_the_default_config(tmp_path):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    assert main(["detect", "--input", str(data), "--output-dir", str(out)]) == 0
    echo = json.loads((out / "run.json").read_text())["config"]
    defaults = asdict(DetectorConfig())
    assert {k: echo[k] for k in defaults} == defaults
    assert set(echo) - set(defaults) == {"seed", "neutral", "version"}


def test_detect_alpha_only_on_timestamp_free_data(tmp_path):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--signals", "alpha"])
    assert rc == 0


def test_detect_phi_on_timestamp_free_data_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--signals", "phi"])
    assert rc == 3
    assert "requires timestamps" in capsys.readouterr().err


def test_detect_profile_dump_on_timestamp_free_data_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--signals", "alpha", "--dump-profiles", "3"])
    assert rc == 3
    assert "--dump-profiles requires timestamps" in capsys.readouterr().err
    assert not (out / "run.json").exists()  # refused before detection


@pytest.mark.parametrize("flag,value", [
    ("--base", "nan"), ("--base", "inf"), ("--time-bin", "nan"), ("--time-bin", "inf"),
    ("--cap-exponent", "nan"), ("--cap-exponent", "inf"),
    ("--num-seeds", "0"), ("--num-seeds", "-2")])
def test_detect_non_finite_setting_is_data_error(tmp_path, capsys, flag, value, monkeypatch):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"

    def unread(*args, **kwargs):
        raise AssertionError("the input was read before the settings were checked")

    monkeypatch.setattr(cli, "_load_graph", unread)
    rc = main(["detect", "--input", str(data), "--output-dir", str(out), flag, value])
    assert rc == 3
    err = capsys.readouterr().err
    if flag == "--num-seeds":
        assert f"num_seeds) must be at least 1, got {value}" in err
    else:
        assert "must be finite" in err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("time_bin", ["1e-9", "1e-300"])
def test_detect_time_bin_too_fine_for_the_span_is_data_error(tmp_path, capsys, time_bin):
    data = tmp_path / "data.csv"
    write_timestamped_base(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--time-bin", time_bin])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: time bin {float(time_bin):g} s is too fine")
    assert err.count("\n") == 1
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("scale, rc, message", [
    ("a:b:c", 2, "--scale expects lo:hi:step"),
    ("1:5:x", 2, "--scale expects lo:hi:step"),
    ("1:5:nan", 3, "is not finite"),
    ("1:inf:1", 3, "is not finite"),
    ("1:5:0", 3, "step must be positive"),
    ("1:5:-1", 3, "step must be positive"),
    ("5:1:1", 3, "ends below its start"),
    ("1:5:1e-12", 3, "has more than 1000 values"),
    ("1:5:0.3", 3, "not a whole number of steps"),
    ("1,nan,3", 3, "must be finite"),
    ("1,3,inf", 3, "must be finite"),
    ("-inf,1", 3, "must be finite"),
])
def test_detect_bad_scale_range(tmp_path, capsys, scale, rc, message):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    assert main(["detect", "--input", str(data), "--output-dir", str(out),
                 "--scale", scale]) == rc
    assert message in capsys.readouterr().err
    assert not (out / "run.json").exists()


def test_detect_negative_profile_count_is_usage_error(tmp_path):
    data = tmp_path / "data.csv"
    write_timestamped_base(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--dump-profiles", "-3"])
    assert rc == 2
    assert not (out / "profiles.json").exists()


@pytest.mark.parametrize("command", ["detect", "inject", "sweep", "bench"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    write_timestamped_base(data)
    out = tmp_path / "out"
    args = {"detect": ["--input", str(data)],
            "inject": ["--input", str(data), "--n-fraudsters", "10"],
            "sweep": ["--input", str(data), "--densities", "0.5"],
            "bench": ["--sizes", "3000"]}[command]
    assert main([command, *args, "--output-dir", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_inject_outputs_are_byte_identical_under_fixed_seed(tmp_path):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    blobs = []
    for name in ("x", "y"):
        out = tmp_path / name
        rc = main(["inject", "--input", str(base), "--output-dir", str(out),
                   "--seed", "5", "--n-fraudsters", "40", "--n-objects", "10",
                   "--ratings-per-object", "20"])
        assert rc == 0
        blobs.append((out / "injected.csv").read_bytes()
                     + (out / "labels.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_inject_labels_and_edge_delta(tmp_path):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    out = tmp_path / "out"
    rc = main(["inject", "--input", str(base), "--output-dir", str(out),
               "--seed", "3", "--n-fraudsters", "50", "--n-objects", "10",
               "--ratings-per-object", "20", "--camouflage-ratio", "0.2"])
    assert rc == 0
    labels = (out / "labels.csv").read_text().splitlines()
    assert sum(1 for l in labels if l.endswith(",user")) == 50
    assert sum(1 for l in labels if l.endswith(",object")) == 10
    run = json.loads((out / "run.json").read_text())
    assert run["n_events_after"] - run["n_events_before"] == 10 * 20 + round(0.2 * 200)


@pytest.mark.parametrize("flag, value", [
    ("--surge-compression", "nan"), ("--surge-compression", "0"),
    ("--camouflage-ratio", "nan"), ("--camouflage-ratio", "inf")])
def test_inject_bad_setting_is_data_error(tmp_path, capsys, flag, value):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    out = tmp_path / "out"
    rc = main(["inject", "--input", str(base), "--output-dir", str(out),
               "--n-fraudsters", "40", "--n-objects", "10", "--ratings-per-object", "20",
               flag, value])
    assert rc == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "injected.csv").exists()


def test_inject_on_ids_the_csv_cannot_carry_is_data_error(tmp_path, capsys):
    base = tmp_path / "base.tsv"
    lines = [f"u{i}\tv{i % 7}\t{1000 + i}" for i in range(300)] + ["u,1\tv1\t10"]
    base.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["inject", "--input", str(base), "--output-dir", str(out),
               "--n-fraudsters", "10", "--n-objects", "3", "--ratings-per-object", "5"])
    assert rc == 3
    assert "cannot write user id 'u,1'" in capsys.readouterr().err
    assert not (out / "injected.csv").exists()


def test_inject_refuses_a_header_word_on_the_first_written_line(tmp_path, capsys):
    # line 1 is blank, so "Time" on line 2 is read as a user: the first one
    # written back, where the reader would skip it as a header
    base = tmp_path / "base.csv"
    lines = ["", "Time,v0,999"] + [f"u{i},v{i % 7},{1000 + i}" for i in range(300)]
    base.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["inject", "--input", str(base), "--output-dir", str(out),
               "--n-fraudsters", "10", "--n-objects", "3", "--ratings-per-object", "5"])
    assert rc == 3
    assert "header word" in capsys.readouterr().err
    assert not (out / "injected.csv").exists()


def test_sweep_writes_curve_and_summary(tmp_path):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    out = tmp_path / "out"
    rc = main(["sweep", "--input", str(base), "--output-dir", str(out),
               "--densities", "0.5,1.0", "--n-objects", "10",
               "--ratings-per-object", "20", "--num-seeds", "3",
               "--cap-exponent", "none", "--seed", "2", "--neutral", "3,2.5"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["neutral"] == [2.5, 3.0]
    for key in ("users_auc", "sinks_auc", "lowest_detection_density_users",
                "lowest_detection_density_sinks"):
        assert key in summary
    rows = (out / "curve.csv").read_text().splitlines()
    assert rows[0].startswith("density,")
    assert len(rows) == 3


def test_sweep_empty_grid_is_usage_error(tmp_path, capsys):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    rc = main(["sweep", "--input", str(base), "--output-dir", str(tmp_path / "o"),
               "--densities", ""])
    assert rc == 2


def test_missing_required_option_is_usage_error():
    assert main(["detect"]) == 2


def test_bench_rows_and_slope(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--sizes", "3000,12000", "--output-dir", str(out),
               "--seed", "1"])
    assert rc == 0
    rows = (out / "bench.csv").read_text().splitlines()
    assert len(rows) == 3
    payload = json.loads((out / "bench.json").read_text())
    assert len(payload["rows"]) == 2
    # which graph takes longer is timing noise at these sizes; what the
    # command computes from its timings is checked instead
    edges = [row["edges"] for row in payload["rows"]]
    seconds = [row["seconds"] for row in payload["rows"]]
    assert edges[0] < edges[1]
    assert all(math.isfinite(s) and s > 0 for s in seconds)
    assert payload["loglog_slope"] == pytest.approx(
        math.log(seconds[1] / seconds[0]) / math.log(edges[1] / edges[0]), rel=1e-9)
    for row in payload["rows"]:
        cap = int(row["n_users"] ** (1 / 1.6))
        assert row["max_seed_size"] <= cap


def test_bench_unsorted_sizes_usage_error(tmp_path):
    rc = main(["bench", "--sizes", "5000,1000", "--output-dir", str(tmp_path / "b")])
    assert rc == 2


@pytest.mark.parametrize("sizes", ["nan", "inf", "-5", "0", "2.5", "1000,nan"])
def test_bench_non_whole_sizes_usage_error(tmp_path, capsys, sizes):
    rc = main(["bench", "--sizes", sizes, "--output-dir", str(tmp_path / "b")])
    assert rc == 2
    assert "whole numbers of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["1", "2"])
def test_bench_sizes_without_a_community_block_data_error(tmp_path, capsys, sizes):
    rc = main(["bench", "--sizes", sizes, "--output-dir", str(tmp_path / "b")])
    assert rc == 3
    assert "at least one row and column" in capsys.readouterr().err


def test_detect_profile_dump(tmp_path):
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(base), "--output-dir", str(out),
               "--dump-profiles", "5", "--num-seeds", "3"])
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["neutral"] == [2.5]  # the inferred scale's middle value
    payload = json.loads((out / "profiles.json").read_text())
    assert len(payload["profiles"]) == 5
    assert {"sink", "pairs", "drop"} <= set(payload["profiles"][0])


def test_detect_profile_dump_with_alpha_only(tmp_path):
    # profiles come from the timestamps, whichever signals the detection used
    base = tmp_path / "base.csv"
    write_timestamped_base(base)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(base), "--output-dir", str(out),
               "--signals", "alpha", "--dump-profiles", "3", "--num-seeds", "3"])
    assert rc == 0
    payload = json.loads((out / "profiles.json").read_text())
    ranked = (out / "objects.csv").read_text().splitlines()[1:4]
    assert [p["sink"] for p in payload["profiles"]] == [r.split(",")[0] for r in ranked]


def test_detect_profile_dump_matches_oracle_for_every_sink(tmp_path):
    data = tmp_path / "data.csv"
    write_timestamped_base(data)
    # two sinks whose bursts sit in a tight cluster next to one far outlier:
    # one burst hits the MAX_BINS cap, two bursts still give over 10k bins
    rng = np.random.default_rng(4)
    t0 = 1_330_000_000
    rows = []
    for k, bursts in enumerate(([0.0], [0.0, 1e5])):
        ts = np.concatenate([rng.normal(t0 + b, 500, 300) for b in bursts]
                            + [rng.uniform(t0 - 2e5, t0 + 3e5, 120), [t0 + 3e8]])
        rows += [f"s{k}_{i},spike{k},{int(t)},4.5\n" for i, t in enumerate(ts)]
    with open(data, "a", encoding="utf-8") as fh:
        fh.writelines(rows)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out),
               "--dump-profiles", "1000", "--num-seeds", "3"])
    assert rc == 0
    times = defaultdict(list)
    with open(data, encoding="utf-8") as fh:
        for _, sink, t, _ in csv.reader(fh):
            times[sink].append(int(t))
    profiles = json.loads((out / "profiles.json").read_text())["profiles"]
    assert sorted(p["sink"] for p in profiles) == sorted(times)
    n_bins = {p["sink"]: len(p.get("bins", [])) for p in profiles}
    assert n_bins["spike0"] == MAX_BINS > n_bins["spike1"] > 10_000
    for p in profiles:
        assert p == oracles.profile_payload(p["sink"], times[p["sink"]]), p["sink"]
