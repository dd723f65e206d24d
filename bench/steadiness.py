"""Steadiness of the benchmark: two sets of runs of unchanged code.

    python3 bench/steadiness.py

For every workload in BENCHMARK.json, set A runs seeds 1..10 and set B
seeds 101..110, one run of each in turn, so a drift in machine load
reaches both sets alike.  For every end-to-end metric it prints each
set's median, quartiles and spread ((q3 - q1) / median), the shift of
B's median from A's, and whether both spreads and the size of the shift
stay within the metric's bound; the failed share must be equal.  Two
traced runs per workload on seed 1 follow: their counts must repeat
exactly, and their traced.wall_s against the wall_s of set A gives the
tracing overhead.  Raw results go to bench/out/steadiness.json.  Exits
with 0 if every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}, correct {result['correct']}")
    return result


def collect(spec: dict) -> dict:
    raw = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, base in (("A", 1), ("B", 101)):
                sets[name].append(run(workload, base + i, spec["run_seconds"], 0))
                print(f"{workload} set {name} run {i + 1}/{RUNS}", file=sys.stderr, flush=True)
        traced = [run(workload, 1, spec["run_seconds"], 1) for _ in range(2)]
        raw[workload] = {"sets": sets, "traced": traced}
    return raw


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def report(spec: dict, raw: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, data in raw.items():
        sets = data["sets"]
        shares = {name: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for name, rs in sets.items()}
        steady &= shares["A"] == shares["B"]
        print(f"\n{workload}: {len(sets['A'])} + {len(sets['B'])} runs, "
              f"failed share A {shares['A']:.4f}, B {shares['B']:.4f}")
        print(f"  {'metric':12s} {'A median':>10s} {'A q1 - q3':>21s} {'A spr':>6s} "
              f"{'B median':>10s} {'B spr':>6s} {'shift':>7s} {'bound':>5s}  verdict")
        for metric, bound in bounds.items():
            a, b = (summary([r["metrics"][metric]["value"] for r in sets[s]]) for s in ("A", "B"))
            shift = (b["median"] - a["median"]) / a["median"]
            ok = max(a["spread"], b["spread"]) <= bound and abs(shift) <= bound
            steady &= ok
            print(f"  {metric:12s} {a['median']:10.4f} {a['q1']:10.4f} - {a['q3']:8.4f} {a['spread']:6.3f} "
                  f"{b['median']:10.4f} {b['spread']:6.3f} {shift:+7.3f} {bound:5.2f}  {'ok' if ok else 'NOT STEADY'}")
        traced = [r["metrics"] for r in data["traced"]]
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        repeat = all(traced[0][c]["value"] == traced[1][c]["value"] for c in counts)
        steady &= repeat
        traced_wall = statistics.median(t["traced.wall_s"]["value"] for t in traced)
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in sets["A"])
        print(f"  traced (seed 1): counts repeat exactly: {repeat}; overhead {traced_wall / wall - 1.0:+.1%} "
              f"(median traced.wall_s against the median wall_s of set A)")
        wall = traced[0]["traced.wall_s"]["value"]
        for m in spec["per_layer"]:
            v = [t[m["name"]]["value"] for t in traced]
            share = f"{v[0] / wall:6.1%}" if m["unit"] == "s" else ""
            print(f"    {m['name']:46s} {v[0]:12.6g} {v[1]:12.6g} {m['unit']:5s} {share}")
    print("\nsteady" if steady else "\nNOT steady")
    return steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = collect(spec)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    return 0 if report(spec, raw) else 1


if __name__ == "__main__":
    sys.exit(main())
