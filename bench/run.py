"""Benchmark command for spindiode.

    python3 bench/run.py --workload spin6 --seed 1 --seconds 25 --trace 0

Runs one workload (spin6, heat6, dynamics6) in a child process with one
BLAS thread, from the package sources in ``src/`` next to this directory.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``bench/out/``); a per-layer
name the tracer does not record is an error.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``.  ``--fast`` runs every workload on a tiny input.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"

# one thread: 6-spin solves run about 1.8x slower on two OpenBLAS threads (README)
BLAS_THREADS = 1
SETUP_SPAWNS = 5  # set-up is measured in this many processes; the median is reported
DEADLINE_S = 170.0
WORKLOADS = ("spin6", "heat6", "dynamics6")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--fast", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spindiode" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no spindiode sources under {SRC} (or no {spec_path.name}); nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS),
               PYTHONPATH=os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p))

    def spawn(*extra) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               *(["--fast"] if args.fast else []), *extra, "--spawned-at", repr(time.time())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_out = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"
            report = spawn("--trace-out", str(trace_out))
            setups = []
        else:
            setups = [spawn("--setup-only")["setup_s"] for _ in range(SETUP_SPAWNS - 1)]
            report = spawn()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(report["layers"], **{"traced.wall_s": statistics.median(report["round_s"])})
        unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        if unknown:
            print(f"per-layer metrics the tracer does not record: {', '.join(unknown)}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(report["round_s"]),
            "point_s.p50": statistics.median(report["op_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setups + [report["setup_s"]]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(report["round_s"])
    print(f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} rounds={rounds} "
          f"operations/round={report['attempted'] // rounds} trace={args.trace}")
    correct = not report["problems"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
