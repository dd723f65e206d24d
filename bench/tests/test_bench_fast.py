"""Fast mode: every workload runs end to end on a tiny input and passes its checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--fast"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_run_is_correct_and_complete(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fast_traced_runs_report_every_layer():
    results = [_run(workload, 1) for workload in WORKLOADS]
    names = [m["name"] for m in SPEC["per_layer"]]
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == set(names)
    # a span that is renamed or never entered would read 0 on every workload
    silent = [n for n in names if all(r["metrics"][n]["value"] == 0 for r in results)]
    assert silent == []
