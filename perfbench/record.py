"""Record reference output digests for the benchmark's reference seeds.

    python3 perfbench/record.py

Runs one pass of every workload for each seed in REFERENCE_SEEDS and
writes their digests to perfbench/reference.json.  Later runs with one of
those seeds compare their first pass against it (see checks.py).  Record
again only when a change to the program is meant to change its outputs,
and say so with the change.
"""

import argparse
import json
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, run_worker

REFERENCE_SEEDS = (1, 2)


def main():
    reference = {}
    tmp = ROOT / ".bench_build" / "perfbench-record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            reference[workload] = {}
            for seed in REFERENCE_SEEDS:
                args = argparse.Namespace(workload=workload, seed=seed,
                                          seconds=0, trace=0)
                res = run_worker(args, tmp, ["--no-reference"], 600)
                if res["failed"]:
                    raise SystemExit(f"{workload} seed {seed} failed: "
                                     f"{res['failures']}")
                reference[workload][str(seed)] = res["digests"]
                print(f"{workload} seed {seed}: {len(res['digests'])} "
                      f"digests", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
