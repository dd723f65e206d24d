"""One workload in its own process: inputs, warm-up, timed rounds, checks.

Started by run.py, which fixes the BLAS thread count before this process
imports numpy and passes the wall-clock time it was spawned at, so that
set-up time counts interpreter start.  A round runs every operation of
the workload once; rounds repeat until ``--seconds`` have passed, and the
checks run on each round's results outside the timed operations.  Prints
one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    import numpy as np

    import workloads
    from tracer import Capture, Tracer

    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), fast=args.fast)
    capture = Capture()
    tracer = Tracer() if args.trace else None
    with capture.installed(), (tracer.installed() if tracer else contextlib.nullcontext()):
        wl.warmup.run()
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.reset()

        op_s, round_s, problems = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            results = {}
            t_round = time.perf_counter()
            for op in wl.ops:
                items = capture.items = []
                t0 = time.perf_counter()
                try:
                    out = op.run()
                    err = out.get("error", "") if isinstance(out, dict) else ""
                except Exception as exc:  # counted as a failed operation, the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                op_s.append(time.perf_counter() - t0)
                attempted += 1
                if err:
                    failed += 1
                    print(f"{op.label} failed: {err}", file=sys.stderr)
                else:
                    results[op.label] = (op, out, items)
            round_s.append(time.perf_counter() - t_round)
            try:
                problems += wl.check(results)
            except Exception as exc:  # a check that cannot run is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if time.perf_counter() - start >= args.seconds:
                break

    report = {
        "setup_s": setup_s,
        "round_s": round_s,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if tracer:
        rounds = len(round_s)
        report["layers"] = {k: v / rounds for k, v in tracer.layer_totals().items()}
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
