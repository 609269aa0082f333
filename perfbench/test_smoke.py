"""Fast smoke test of the benchmark harness.

Each workload runs at tiny size on the transparent backend, untraced and
traced, against real server processes.  The checks are on shape only: the
metric names and units of BENCHMARK.json are emitted and the oracle check
runs and can fail.  The timings these runs produce are never reported.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from workloads import WORKLOADS
from shrq.pairing import TRANSPARENT

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(
        WORKLOADS[name], backend=TRANSPARENT, lambda_bits=24, points=4, kill_cycle=1
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_emits_every_metric_and_checks_answers(name, trace):
    result = harness.run(tiny(name), seed=3, seconds=0, trace=trace)
    line = result["line"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert line["correct"] and line["failed"] == 0, result["errors"]
    assert line["attempted"] >= 1 and result["checked"] >= 2  # measured queries + durability query
    if not trace:  # end-to-end metrics must never read 0
        assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)  # the result line must serialise as is


def test_oracle_mismatch_is_a_failure(monkeypatch):
    monkeypatch.setattr(harness.oracle, "hrq_oracle", lambda dataset, query, cols=None: set())
    line = harness.run(tiny("scan"), seed=3, seconds=0)["line"]
    assert not line["correct"] and line["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
