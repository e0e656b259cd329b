from __future__ import annotations

import ast
import re
from pathlib import Path

import fraudsift
from fraudsift import gen_hyperbolic, write_delimited
from fraudsift.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "fraudsift"


def test_every_export_resolves():
    assert len(set(fraudsift.__all__)) == len(fraudsift.__all__)
    assert [name for name in fraudsift.__all__ if not hasattr(fraudsift, name)] == []


def test_no_module_imports_a_private_numpy_or_scipy_module():
    # an underscore module of numpy or scipy may change in any release
    modules = sorted(SRC.glob("*.py"))
    assert modules
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                top, *parts = name.split(".")
                if top in ("numpy", "scipy") and any(
                        p.startswith("_") and not p.endswith("__") for p in parts):
                    private.append(f"{path.name}:{node.lineno} {name}")
    assert private == []


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert set(re.findall(r"\bfs\.(\w+)", block)) <= set(fraudsift.__all__)

    base, _ = gen_hyperbolic(400, 200, power_exponent=0.5, density_target=0.5,
                             rng_seed=1, block_shape=(80, 50), noise_avg_degree=2.0,
                             timestamps=True, ratings=True)
    write_delimited(base, tmp_path / "base.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["inject", "--input", "base.csv", "--output-dir", "inj", "--seed", "7",
                 "--n-fraudsters", "40", "--n-objects", "20",
                 "--ratings-per-object", "20"]) == 0
    capsys.readouterr()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    scores = ast.literal_eval(printed[2])  # (precision, recall, F1)
    assert len(scores) == 3 and all(0.0 <= x <= 1.0 for x in scores)
