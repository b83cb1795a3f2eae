"""Capture the golden CSVs that run.py checks every grid point against.

Runs each workload once per seed, untraced, at the workload's own trial
count, and stores the CSV texts in perfbench/golden/<workload>.json.  Run it
only on a commit whose output is the accepted reference:

    python3 perfbench/capture_golden.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/capture_golden.py")
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    scratch = run.ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        golden = {"trials_per_point": run.GOLDEN_TRIALS, "seeds": {}}
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix="golden-", dir=scratch))
            try:
                sample = argparse.Namespace(workload=workload, seed=seed, trials=None)
                run.run_child(sample, work, work / "r.json", time.monotonic() + 600, 0)
                golden["seeds"][str(seed)] = {
                    name: data.decode("utf-8") for name, data in run.read_csvs(work).items()
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{workload} seed {seed}", flush=True)
        path = run.HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
