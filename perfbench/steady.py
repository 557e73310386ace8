#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py --runs 5 [--seed 1000]

For each workload, makes ``--runs`` runs in each of two sets, A and B,
alternating between the sets (A B, then B A, ...) and giving every run
its own seed; each run lasts BENCHMARK.json's ``run_seconds``.  For
every end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over the median) of each set, the change of
B's median against A's, and whether both spreads and the size of the
change, in either direction, stay within the metric's bound in
BENCHMARK.json; the ``all`` column is the spread of both sets pooled.
For reference it also prints the spread of the raw, unnormalised rate
next to the normalised one.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Unnormalised figures from the line before the result, for reference.
RAW = ("raw_events_per_s", "raw_jobs_per_s", "raw_setup_s")


def one(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for key in RAW:
        if key in report:
            values[key] = report[key]
    values["failed_share"] = result["failed"] / result["attempted"]
    return values


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                seed = args.seed + i * 2 + (s == "B")
                sets[s].append(one(workload, seed, seconds))
        print(f"\n{workload}: {args.runs} runs a set, {seconds} s each",
              flush=True)
        print(f"  {'metric':18s} {'A q1/med/q3':>30s} {'spread':>7s} "
              f"{'B q1/med/q3':>30s} {'spread':>7s} {'B/A':>7s} "
              f"{'all':>7s} {'bound':>6s}  ok")
        rows = [(m["name"], m["bound"]) for m in metrics
                if m["name"] in sets["A"][0]]
        rows += [(key, None) for key in RAW if key in sets["A"][0]]
        for name, bound in rows:
            a = spread([r[name] for r in sets["A"]])
            b = spread([r[name] for r in sets["B"]])
            pooled = spread([r[name] for r in sets["A"] + sets["B"]])
            change = b[1] / a[1] - 1
            if bound is None:
                verdict = "(reference)"
            else:
                within = abs(change) <= bound and max(a[3], b[3]) <= bound
                ok &= within
                verdict = "yes" if within else "NO"
            print(f"  {name:18s} {a[0]:9.4g}/{a[1]:9.4g}/{a[2]:9.4g} "
                  f"{a[3]:7.2%} {b[0]:9.4g}/{b[1]:9.4g}/{b[2]:9.4g} "
                  f"{b[3]:7.2%} {change:+7.2%} {pooled[3]:7.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6s}  "
                  f"{verdict}", flush=True)
        shares = {s: sorted({r["failed_share"] for r in sets[s]})
                  for s in sets}
        print(f"  failed share: A {shares['A']}  B {shares['B']}")
        ok &= shares["A"] == shares["B"]
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
