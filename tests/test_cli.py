from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fraudsift import gen_hyperbolic, write_delimited
from fraudsift.cli import main


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
    ("--cap-exponent", "nan"), ("--cap-exponent", "inf")])
def test_detect_non_finite_setting_is_data_error(tmp_path, capsys, flag, value):
    data = tmp_path / "data.csv"
    write_planted_fixture(data)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(data), "--output-dir", str(out), flag, value])
    assert rc == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "run.json").exists()


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
    assert payload["rows"][1]["seconds"] > payload["rows"][0]["seconds"]
    assert payload["loglog_slope"] is not None
    for row in payload["rows"]:
        cap = int(row["n_users"] ** (1 / 1.6))
        assert row["max_seed_size"] <= cap


def test_bench_unsorted_sizes_usage_error(tmp_path):
    rc = main(["bench", "--sizes", "5000,1000", "--output-dir", str(tmp_path / "b")])
    assert rc == 2


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


def test_inject_refuses_priors_as_data_error(tmp_path, capsys):
    data = tmp_path / "priors.csv"
    # rated 4 and 4.5, so the default fraud ratings are on the inferred scale
    data.write_text("".join(f"u{i},v{i % 5},{1000 + i},{4 + i % 2 / 2},2.0\n"
                            for i in range(40)), encoding="utf-8")
    rc = main(["inject", "--input", str(data), "--output-dir", str(tmp_path / "out"),
               "--n-fraudsters", "4", "--n-objects", "2", "--ratings-per-object", "2"])
    assert rc == 3
    assert "priors" in capsys.readouterr().err
