"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON object with the raw per-pass figures.  With --setup-only
it imports the package, builds the workload's fixed inputs, and prints the
set-up time alone.  Only the standard library is imported before the set-up
clock starts, so the clock covers importing numpy and scipy through the
package.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--no-reference", action="store_true",
                   help="do not compare with reference.json (recording)")
    return p.parse_args()


def load_package(src):
    """Import sigma_eikonal from the checkout's src, nowhere else."""
    sys.path.insert(0, src)
    import sigma_eikonal
    from sigma_eikonal import cli  # noqa: F401  (cli is not in __init__)

    found = Path(sigma_eikonal.__file__).resolve()
    if Path(src).resolve() not in found.parents:
        raise SystemExit(f"sigma_eikonal imported from {found}, not {src}")
    return sigma_eikonal


class PassFailed(Exception):
    """An op raised or its output failed a check; the pass stops there."""


class Runner:
    """Runs passes of one workload and keeps their figures."""

    def __init__(self, se, workload, fixed, reference, calibration):
        self.se = se
        self.workload = workload
        self.fixed = fixed
        self.reference = reference
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.mismatches = []
        self.bit_identical = True

    def run_pass(self, seed, tracer=None, record=False):
        """Wall and CPU seconds summed over the pass's ops, measured and at
        the reference speed: (wall, cpu, wall_ref, cpu_ref).  Raises
        PassFailed if an op raises or fails its check.

        With record set, digests of the kept outputs are stored and, when
        a reference exists for this seed, compared with it.
        """
        from checks import CheckFailed, compare, digest

        totals = [0.0, 0.0, 0.0, 0.0]
        ref = self.reference if record else None

        def op(name, fn, check=None, keep=None):
            self.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = tracer.root(name, fn) if tracer else fn()
                t1 = time.perf_counter()
                c1 = time.process_time()
                scale = self.calibration.scale()
                if check is not None:
                    check(out)
                if record and keep is not None:
                    dig = digest(keep(out))
                    self.digests[name] = dig
                    if ref is not None:
                        bad, same = compare(ref.get(name), dig, name)
                        self.bit_identical &= same
                        if bad:
                            self.mismatches += bad[:5]
                            raise CheckFailed(f"{name}: output differs "
                                              f"from the reference: {bad[0]}")
            except Exception as exc:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(
                        f"seed {seed} op {name}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, CheckFailed) and self.failed == 1:
                    traceback.print_exc(file=sys.stderr)
                raise PassFailed(name) from exc
            totals[0] += t1 - t0
            totals[1] += c1 - c0
            totals[2] += (t1 - t0) * scale
            totals[3] += (c1 - c0) * scale
            return out

        self.workload.run_pass(self.se, op, seed, self.fixed)
        return tuple(totals)


class Calibration:
    """Speed probe of the machine, independent of the program.

    Times a fixed kernel (interpreter loops, small numpy calls and one
    sort, the mix the workloads spend their time in).  Shared hosts slow
    down and speed up by tens of percent over seconds to minutes, and the
    kernel slows with them, so ``scale`` turns the time of the op that just
    ran into seconds on a machine where the kernel takes ``REF_S``.
    """

    REF_S = 0.005

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).random(1 << 16)
        self.run()  # warm caches and numpy's dispatch
        self.last = self.run()

    def run(self):
        a, np = self._a, self._np
        t0 = time.perf_counter()
        s = 0
        for i in range(35000):
            s += i & 7
        for i in range(1700):
            s += a[i:i + 32].sum()
        np.sort(a)
        return time.perf_counter() - t0

    def scale(self):
        """REF_S over the mean kernel time before and after the last op."""
        before, self.last = self.last, self.run()
        return 2.0 * self.REF_S / (before + self.last)

    def setup_scale(self):
        """REF_S over the median of nine kernel runs, for a fresh process."""
        return self.REF_S / statistics.median(self.run() for _ in range(9))


def environment(se):
    import numpy
    import scipy

    from sigma_eikonal.distance import THREADS_ENV, thread_count

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_count": thread_count(),
        THREADS_ENV: os.environ.get(THREADS_ENV),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# a blow-up fails the op with MemoryError instead of taking the machine's
# memory; a normal run stays under 300 MiB resident
ADDRESS_SPACE_LIMIT = 4 << 30


def main():
    args = parse_args()
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    t0 = time.perf_counter()
    se = load_package(args.src)
    from workloads import SEED_STRIDE, WORKLOADS

    workload = WORKLOADS[args.workload]
    fixed = workload.setup(se, args.out)
    setup_s = time.perf_counter() - t0
    calibration = Calibration()
    setup_ref_s = setup_s * calibration.setup_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    from spans import Tracer, check_coverage, layer_metrics

    reference = None
    if not args.no_reference:
        with open(HERE / "reference.json", encoding="ascii") as fh:
            reference = json.load(fh).get(args.workload, {}).get(
                str(args.seed))
    runner = Runner(se, workload, fixed, reference, calibration)
    tracer = Tracer("sigma_eikonal") if args.trace else None

    passes, traced, overheads = [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while True:
        began = time.perf_counter()
        seed = workload.inputs(se, args.seed + SEED_STRIDE * i)
        try:
            if tracer is None:
                passes.append(runner.run_pass(seed, record=i == 0))
            else:
                # same inputs untraced and traced, order alternating
                figures = {}
                for traced_run in ((False, True) if i % 2 == 0
                                   else (True, False)):
                    if traced_run:
                        tracer.install()
                        try:
                            figures[True] = runner.run_pass(
                                seed, tracer, record=i == 0)
                        finally:
                            tracer.uninstall()
                        spans = tracer.take()
                    else:
                        figures[False] = runner.run_pass(seed, record=i == 0)
                metrics = layer_metrics(spans)
                check_coverage(metrics, workload.layers)
                metrics["tracing.wall_s"] = figures[True][0]
                traced.append(metrics)
                passes.append(figures[False])
                overheads.append(figures[True][0] - figures[False][0])
        except PassFailed:
            if tracer is not None:
                tracer.take()
        if i == 0:
            # later passes draw other shapes, whose rare large grids would
            # make the run's maximum depend on luck
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - began
        if elapsed + last > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "walls": [p[0] for p in passes],
        "cpus": [p[1] for p in passes],
        "walls_ref": [p[2] for p in passes],
        "cpus_ref": [p[3] for p in passes],
        "passes": i,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "reference_checked": reference is not None,
        "mismatches": runner.mismatches,
        "bit_identical": runner.bit_identical,
        "digests": runner.digests,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(se),
    }
    if tracer is not None:
        keys = traced[0].keys() if traced else ()
        result["layers"] = {k: statistics.median(m[k] for m in traced)
                            for k in keys}
        result["overheads"] = overheads
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
