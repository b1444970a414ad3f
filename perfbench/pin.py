"""Regenerate ``pinned.json``: each workload's outcome digest per seed.

Usage: ``python3 perfbench/pin.py [--seeds 32] [--workload NAME ...]``.

A run whose seed is pinned fails its correctness check when the outcome
digest differs.  Rerun this only for a change that is meant to alter
outcomes, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    path = os.path.join(HERE, "pinned.json")
    pinned = {}
    if os.path.exists(path):
        with open(path) as fh:
            pinned = json.load(fh)
    workdir = os.path.join(run.ROOT, ".perfbench_work", "pin")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in args.workload or run.WORKLOADS:
            digests = pinned.setdefault(workload, {})
            for seed in range(args.seeds):
                rep = run.run_rep(workload, seed, workdir,
                                  time.monotonic() + 600, phase="reference")
                digests[str(seed)] = (
                    run.service_digest(rep["expected"])
                    if workload == "service" else rep["digest"])
                print(workload, seed, digests[str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
