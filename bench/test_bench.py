"""The benchmark's own tests, on the --smoke inputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py")] + args,
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0 and report["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()


def test_inputs_depend_only_on_the_seed():
    a = workloads.uniform_input("sibson-uniform", 5, smoke=True)
    b = workloads.uniform_input("sibson-uniform", 5, smoke=True)
    c = workloads.uniform_input("sibson-uniform", 6, smoke=True)
    assert a == b and a.sites != c.sites
    assert workloads.QueryStream("lune-uniform", 2).take(5) == workloads.QueryStream("lune-uniform", 2).take(5)
    assert workloads.lattice_input(4, smoke=True) == workloads.lattice_input(4, smoke=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "lune-uniform", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_wrong_outputs(tmp_path):
    seed = 2
    inp = workloads.lattice_input(seed, smoke=True)
    nodes = workloads.sizes(True).grid_nodes
    pgm = tmp_path / "grid.pgm"
    import lunenn.cli

    assert lunenn.cli.main(workloads.grid_args(inp, _csv(inp, tmp_path), pgm, nodes)) == 0
    problems = []
    checks.check_pgm(str(pgm), seed, nodes, True, problems)
    assert problems == []
    tokens = pgm.read_text().split()
    tokens[4 + nodes + 3] = str(int(tokens[4 + nodes + 3]) + 2)
    pgm.write_text(" ".join(tokens))
    checks.check_pgm(str(pgm), seed, nodes, True, problems)
    assert len(problems) == 1

    values = np.asarray([0.5, 0.25])
    problems = []
    checks.check_lune(seed, values, True, problems)
    assert problems


def _csv(inp, tmp_path):
    path = tmp_path / "lattice.csv"
    workloads.write_lattice_csv(inp, path)
    return str(path)
