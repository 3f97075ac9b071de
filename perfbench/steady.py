"""Steadiness check: run workloads k times and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload all --runs 10 --sets 2

``all`` is every workload of BENCHMARK.json; any workload of run.py can
be named, corpus-warm included.  Each run is ``perfbench/run.py`` with
its own ``--seed`` (set s, run i uses seed ``s * runs + i``) and the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median, against the metric's
bound: ``ok`` below a third of the bound, ``within`` up to the bound,
``WIDE`` beyond.
With ``--sets 2`` it also shows how far the second set's median moved
from the first, in the metric's worse direction, against the bound, and
whether the share of failed operations is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict_of(share: float, bound: float) -> str:
    if share < bound / 3:
        return "ok"
    return "within" if share <= bound else "WIDE"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    chosen = names if args.workload == "all" else [args.workload]

    verdict = 0
    for workload in chosen:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = s * args.runs + i
                result = run_once(workload, seed, bench["run_seconds"])
                print(f"{workload} seed {seed}: {result['run_s']:.1f} s, "
                      f"{result['failed']}/{result['attempted']} failed", flush=True)
                results.append(result)
            sets.append(results)
        print(f"\n== {workload}: {args.runs} run(s) per set, {args.sets} set(s)")
        print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict" + ("      2nd set: spread, median move" if args.sets == 2 else ""))
        for name, meta in bounds.items():
            columns = [[r["metrics"][name]["value"] for r in results] for results in sets]
            median, q1, q3, share = spread(columns[0])
            bound = meta["bound"]
            status = verdict_of(share, bound)
            verdict |= status == "WIDE"
            line = (f"{name:<22} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                    f"{share:>8.2%} {bound:>6.4g}  {status:<11}")
            if args.sets == 2:
                second, _, _, second_share = spread(columns[1])
                second_status = verdict_of(second_share, bound)
                move = (second - median) / median
                worse = move if meta["better"] == "lower" else -move
                flag = "ok" if worse <= bound else "WORSE"
                verdict |= second_status == "WIDE" or flag != "ok"
                line += f"   {second_share:>7.2%} {second_status:<11} {move:+.2%} {flag}"
            print(line)
        shares = [
            sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            for results in sets
        ]
        same = len(set(shares)) == 1
        verdict |= not same
        print(f"failed share per set: {shares} ({'same' if same else 'DIFFERENT'})")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
