"""Tests of the benchmark itself, on the smoke size.

They run the benchmark the way it is run for measurements: from the root of
a checkout, with ``python3 bench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import fixtures
import workloads
from superhopf import growth, hopf

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(root: Path, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", "--size", "smoke", *args],
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def declared(kind: str):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}, [w["name"] for w in spec["workloads"]]


def copy_checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".traces", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_fixtures_match_closed_forms():
    osp = hopf.enveloping(fixtures.osp12()).carrier
    assert osp.gen("a") * osp.gen("a") == osp.gen("e")  # nonzero odd square
    assert workloads.fixture_problems(fixtures.gl(2, 1), fixtures.osp12()) == []
    u = hopf.enveloping(fixtures.gl(2, 1)).carrier
    dims = growth.growth_series(u, [u.gen(g.name) for g in u.generators], 3).dims
    assert dims == fixtures.pbw_dims(5, 4, 3) == [1, 10, 51, 180]


def test_seed_fixes_the_inputs():
    def pairs(seed):
        return [(str(a), str(b)) for a, b in workloads.Straighten(seed, "smoke").pairs]

    assert pairs(1) == pairs(1)
    assert pairs(1) != pairs(2)


def test_every_workload_reports_the_declared_metrics():
    units, names = declared("end_to_end")
    for workload in names:
        code, lines = run_bench(ROOT, "--workload", workload, "--seed", "3")
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_the_declared_layer_metrics():
    units, _ = declared("per_layer")
    code, lines = run_bench(ROOT, "--workload", "cli-suite", "--trace", "1")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["verify.checks"]["value"] > 0
    assert result["metrics"]["cli.bytes_out"]["value"] > 0


def test_corrupted_expected_value_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    golden = root / "bench" / "golden" / "dense_span.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    data["smoke"][0] = data["smoke"][0].replace("1, ", "2, ", 1)
    golden.write_text(json.dumps(data), encoding="utf-8")
    code, lines = run_bench(root, "--workload", "dense-span")
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False


def test_run_length_is_fixed_by_the_spec():
    code, lines = run_bench(ROOT, "--workload", "straighten", "--seconds", "3")
    assert code == 2 and lines == []


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    code, lines = run_bench(root, "--workload", "straighten")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
