"""Benchmark launcher: one workload in its own fresh process.

    python3 perfbench/run.py --workload exact_convex --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its src/.
It first starts ``SETUP_PROBES`` short processes that only import the
package and build the workload's fixed inputs, then one worker process
that measures passes for ``--seconds`` seconds.  With --trace 0 the result
carries the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  A human-readable summary comes first; the last line of
standard output is the JSON result.  Any error exits non-zero without a
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact_convex", "sampled_rough", "march_3d")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
WORKER_SLACK_S = 100
TAIL_BEYOND = 10

# the program's own threads are its distance chunk pool; BLAS threads on
# top of that would oversubscribe the CPUs, so the launcher pins them
BLAS_THREADS = "1"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


def layer_units(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def child_env(tmp):
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, tmp, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--out", str(tmp / "out")] + extra
    proc = subprocess.run(cmd, env=child_env(tmp), stdout=subprocess.PIPE,
                          timeout=timeout, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, or None when there are too few samples."""
    if len(values) <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def summarize(args, res, measured, scaled):
    fail_frac = res["failed"] / res["attempted"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} timed_passes={len(res['walls'])}")
    for label, fig in (("measured", measured), ("reference speed", scaled)):
        t = tail(fig["walls"])
        tail_text = (f"p{t[0]:.0f}={t[1]:.4f} s" if t else
                     f"no percentile has {TAIL_BEYOND} samples beyond it")
        print(f"{label}: wall_s median={statistics.median(fig['walls']):.4f}"
              f" s {tail_text} n={len(fig['walls'])}; cpu_s median="
              f"{statistics.median(fig['cpus']):.4f} s; setup_s median="
              f"{statistics.median(fig['setups']):.4f} s of "
              + " ".join(f"{s:.4f}" for s in fig["setups"]))
    print(f"fail_frac={fail_frac:.6g} ratio "
          f"(failed={res['failed']} attempted={res['attempted']})")
    for line in res["failures"]:
        print(f"failure: {line}")
    if res["reference_checked"]:
        print(f"reference digests: mismatches={len(res['mismatches'])} "
              f"bit_identical={res['bit_identical']}")
    else:
        print("reference digests: none recorded for this seed")
    print("env: " + json.dumps(res["env"], sort_keys=True))


def figures(res, probes):
    """Pass and set-up times, measured and at the reference speed."""
    measured = {"walls": res["walls"], "cpus": res["cpus"],
                "setups": [p["setup_s"] for p in probes]}
    scaled = {"walls": res["walls_ref"], "cpus": res["cpus_ref"],
              "setups": [p["setup_ref_s"] for p in probes]}
    return measured, scaled


def main():
    args = parse_args()
    if not (SRC / "sigma_eikonal" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/sigma_eikonal", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        probes = [run_worker(args, tmp, ["--setup-only"], PROBE_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        res = run_worker(args, tmp, [], args.seconds + WORKER_SLACK_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probes.append(res)
    if not res["walls"]:
        print("error: no pass completed", file=sys.stderr)
        for line in res["failures"]:
            print(f"failure: {line}", file=sys.stderr)
        return 1
    measured, scaled = figures(res, probes)
    summarize(args, res, measured, scaled)

    if args.trace:
        layers = res["layers"]
        untraced = statistics.median(res["walls"])
        overhead = statistics.median(res["overheads"])
        values = {k: v for k, v in layers.items()
                  if not k.endswith(".spans") and k != "tracing.wall_s"}
        values["tracing.overhead_s"] = overhead
        values["tracing.overhead_frac"] = overhead / untraced
        print(f"tracing: untraced wall_s={untraced:.4f} s, traced "
              f"wall_s={layers['tracing.wall_s']:.4f} s, overhead="
              f"{overhead:.4f} s ({100 * overhead / untraced:.1f}%)")
        metrics = {k: {"value": v, "unit": layer_units(k)}
                   for k, v in values.items()}
    else:
        values = {"wall_s": statistics.median(scaled["walls"]),
                  "cpu_s": statistics.median(scaled["cpus"]),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(scaled["setups"])}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    correct = res["failed"] == 0 and not res["mismatches"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
