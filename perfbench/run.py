#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload fir-bare --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  Lines before it are figures for people
(raw rates, unobserved rates, generator lateness).  The metric
definitions and the workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("fir-bare", "storestorm-observed", "im2col-dashboard",
             "campaign")

#: Unit of every end-to-end metric, as BENCHMARK.json lists them.  Every
#: workload reports every one (see README.md).
UNITS = {"sim_events_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "op_p50_ms": "ms", "op_p90_ms": "ms"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Subprocesses (the fleet's workers) import the program from here.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

    if args.trace:
        from layers import traced_run
        result, report = traced_run(args.workload, args.seed, args.seconds)
    else:
        if args.workload == "campaign":
            from campaign import CampaignRun as Run
        else:
            from sims import SimRun as Run
        run = Run(args.workload, args.seed, args.seconds)
        run.run()
        values = run.metrics()
        assert values.keys() == UNITS.keys(), sorted(values)
        report = run.report()
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in values.items()},
        }
        for err in run.errors[:10]:
            print(f"check failed: {err}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
