"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds S]

Prints each run's own summary (wall_s median and tail with its sample
count, fail_frac, the environment), then one table of the end-to-end
metrics and fail_frac, and one of the per-layer metrics.  --seconds
defaults to the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def launch(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    print()
    return json.loads(lines[-1])


def table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))
    print()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=float, default=default_seconds)
    args = p.parse_args()
    plain, traced = {}, {}
    for w in WORKLOADS:
        plain[w] = launch(w, args.seed, args.seconds, 0)
        traced[w] = launch(w, args.seed, args.seconds, 1)

    names = list(plain[WORKLOADS[0]]["metrics"])
    units = {k: v["unit"] for k, v in plain[WORKLOADS[0]]["metrics"].items()}
    rows = []
    for w in WORKLOADS:
        res = plain[w]
        rows.append([w] + [f"{res['metrics'][k]['value']:.4g}" for k in names]
                    + [f"{res['failed'] / res['attempted']:.3g}",
                       str(res["correct"]).lower()])
    table(["workload"] + [f"{k} [{units[k]}]" for k in names]
          + ["fail_frac [ratio]", "correct"], rows)

    layer_names = [k for k in traced[WORKLOADS[0]]["metrics"]]
    rows = []
    for k in layer_names:
        unit = traced[WORKLOADS[0]]["metrics"][k]["unit"]
        rows.append([k, unit] + [f"{traced[w]['metrics'][k]['value']:.4g}"
                                 for w in WORKLOADS])
    table(["per-layer metric", "unit"] + list(WORKLOADS), rows)


if __name__ == "__main__":
    main()
