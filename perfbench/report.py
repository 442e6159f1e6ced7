"""Print every end-to-end metric of every workload, by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each workload runs in a fresh process through ``run.py --trace 0``; its run
record in ``.perfbench/`` supplies the metrics. Besides the workloads of
BENCHMARK.json this includes ``grid-batched``, which compares aida with
exhaustive enumeration on every instance: aida's failures and operations
cut off by the time limit count in fail_ratio. verify_s reads
"not run" where the dense checker is not run (grid-sparse).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALL_WORKLOADS = ("intervals-mixed", "grid-sparse", "grid-enum", "grid-batched")
UNITS = {"solve_s": "s", "op_s": "s", "op_s_max": "s", "verify_s": "s",
         "fail_ratio": "1", "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workload", action="append", choices=ALL_WORKLOADS)
    args = ap.parse_args(argv)
    status = 0
    for name in args.workload or ALL_WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}\n"
                  f"{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".perfbench" /
                             f"run-{name}-seed{args.seed}-trace0.json").read_text())
        print(f"{name}: {result['attempted']} operations, "
              f"{result['failed']} failed")
        for key, unit in UNITS.items():
            val = record["metrics"][key]
            shown = "not run" if val is None else f"{val:.6g} {unit}"
            print(f"  {key:<12} {shown}")
    return status


if __name__ == "__main__":
    sys.exit(main())
