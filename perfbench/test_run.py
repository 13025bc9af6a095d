"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/test_run.py``.
Each test drives ``run.py`` as a subprocess on the tiny ``--quick`` inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


def checkout_copy(tmp_path: Path, with_program: bool = True) -> Path:
    """A checkout-like directory: BENCHMARK.json, the benchmark and,
    optionally, the program's sources."""
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    skip = shutil.ignore_patterns("__pycache__", "results", "*.egg-info")
    shutil.copytree(HERE, root / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[tuple[subprocess.CompletedProcess, dict]]:
    out = tmp_path_factory.mktemp("records")
    results = []
    for index in range(2):
        path = out / f"run{index}.json"
        process = run_bench(ROOT, "--quick", "--out", str(path))
        results.append((process, json.loads(path.read_text(encoding="utf-8"))))
    return results


def test_quick_runs_are_correct(records):
    for process, record in records:
        assert process.returncode == 0, process.stderr
        line = last_json(process)
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert record["correct"] is True


def test_every_metric_is_reported_with_its_unit(records):
    process, _ = records[0]
    metrics = last_json(process)["metrics"]
    for workload in BENCH["workloads"]:
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            key = f"{workload['name']}.{metric['name']}"
            assert key in metrics, key
            assert metrics[key]["unit"] == metric["unit"]
            assert isinstance(metrics[key]["value"], (int, float))


def test_counters_repeat_exactly(records):
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
    (_, first), (_, second) = records
    for name, entry in first["workloads"].items():
        a = entry["per_layer"]["metrics"]
        b = second["workloads"][name]["per_layer"]["metrics"]
        assert {c: a[c]["value"] for c in counted} == {c: b[c]["value"] for c in counted}


def test_compare_accepts_identical_counters(records, tmp_path):
    (_, record), _ = records
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    process = run_bench(ROOT, "compare", str(path), str(path))
    assert process.returncode == 0, process.stdout
    assert "regressed" not in process.stdout and "differs" not in process.stdout


def test_tampered_digest_fails_the_run(tmp_path):
    root = checkout_copy(tmp_path)
    expected_path = root / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected["tall"]["quick"] = "0" * 64
    expected_path.write_text(json.dumps(expected), encoding="utf-8")
    process = run_bench(root, "--quick", "--workload", "tall", "--trace", "0")
    assert process.returncode != 0
    line = last_json(process)
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    root = checkout_copy(tmp_path, with_program=False)
    process = run_bench(root, "--quick", "--workload", "tall", "--trace", "0")
    assert process.returncode != 0
    assert process.stdout.strip() == ""
