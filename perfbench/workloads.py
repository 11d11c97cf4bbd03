"""The three benchmark workloads.

A workload has a ``setup`` that builds the inputs that do not depend on
the seed, an ``inputs`` that turns a pass seed into the seed its shapes
are drawn from, and a ``run_pass`` that makes one pass of public calls
through ``op(name, fn, check=None, keep=None)``.  ``op`` times ``fn()`` alone; the
check (raises ``checks.CheckFailed``) and the digest of ``keep(result)``
run outside the timed region.  Pass ``i`` of a run uses the seed
``seed + SEED_STRIDE * i``, so the median of a run is taken over many
seeded shapes rather than one, and the same ``--seed`` always gives the
same inputs.

Sizes are coarser than the experiments' defaults so that one pass takes
one to three seconds on 2 CPUs and a run holds ten or more passes; the
README lists them.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from checks import (
    distance_field_ok,
    mask_ok,
    radii_ok,
    require,
    verdict_ok,
)

SEED_STRIDE = 1000


# a random polytope whose facet normals come close to leaving an open
# direction has a far vertex, and the grid that covers it grows with the
# square of that distance (one 8-facet draw needs 24 million nodes at
# h = 1/20); such draws are skipped like unbounded ones
MAX_DIAMETER = 10.0


def usable_seed(se, seed, draws):
    """First seed, from ``seed`` up, for which make_random_polytope(n,
    seed + k, dim) is bounded, with diameter at most MAX_DIAMETER, for
    every (n, k, dim) in draws.

    The program rejects unbounded draws by design (8 random 2D normals
    leave an open direction with probability 1/16), so the benchmark skips
    those seeds instead of counting the rejection as a failed op.  It runs
    before the timed ops and outside any trace.
    """
    while True:
        try:
            if all(se.make_random_polytope(n, seed + k, dim).diameter()
                   <= MAX_DIAMETER for n, k, dim in draws):
                return seed
        except se.GeometryError:
            pass
        seed += 1


@contextlib.contextmanager
def _capture(module, name):
    """Record the arguments and result of module.name while active."""
    orig = getattr(module, name)
    seen = []

    def hook(*args, **kwargs):
        result = orig(*args, **kwargs)
        seen.append((args, result))
        return result

    setattr(module, name, hook)
    try:
        yield seen
    finally:
        setattr(module, name, orig)


# ---------------------------------------------------------------------------
# exact_convex: the user-facing CLI over exact 2D element-cycle kernels
# ---------------------------------------------------------------------------

class ExactConvex:
    """`verify offset_identity`, `verify lemma_gradient`, `verify
    typical_density` and `innerball` on a seeded polytope offset, in-process
    through ``sigma_eikonal.cli.main``."""

    name = "exact_convex"
    layers = ("cli", "experiments", "geometry", "projection", "distance",
              "eikonal", "singular", "innerball")
    VERIFY = (("offset_identity", "1/20"), ("lemma_gradient", "1/32"),
              ("typical_density", "1/20"))
    # r_max above the offset radius, so bisection runs on part of the
    # boundary instead of every sample stopping at the cap
    IB_FACETS, IB_EPS, IB_SPACING, IB_R_MAX = 16, 0.3, 0.4, 0.5

    # (n_facets, seed offset, dim) of every draw with at most 20 facets that
    # the experiments and the innerball shape make from the seed; a 2D
    # draw of 32 or more facets fails usable_seed's tests with probability
    # below 1e-7
    DRAWS = ((8, 0, 2), (8, 1, 2), (8, 2, 2), (12, 2, 2), (16, 0, 2),
             (16, 1, 2), (16, 2, 2), (20, 3, 2))

    def setup(self, se, out_dir):
        return {"out": out_dir}

    def inputs(self, se, seed):
        return usable_seed(se, seed, self.DRAWS)

    def run_pass(self, se, op, seed, fixed):
        common = ["--seed", str(seed), "--out", fixed["out"], "--quiet"]
        for exp, grid in self.VERIFY:
            argv = ["verify", exp, "--grid", grid] + common
            op(f"verify.{exp}", lambda: self._verify(se, argv),
               check=lambda r, exp=exp: self._check_verdict(exp, r),
               keep=lambda r: r[1])
        spec = {"kind": "offset", "epsilon": self.IB_EPS,
                "base": {"kind": "random_polytope",
                         "n_facets": self.IB_FACETS, "seed": seed}}
        argv = ["innerball", "--shape", json.dumps(spec),
                "--spacing", str(self.IB_SPACING),
                "--r-max", str(self.IB_R_MAX)] + common
        op("innerball", lambda: self._innerball(se, argv),
           check=self._check_innerball,
           keep=lambda r: {"radii": r[1].profile.radii,
                           "patches_ok": np.array([p.ok for p in
                                                   r[1].patches])})

    @staticmethod
    def _verify(se, argv):
        with _capture(se.cli, "write_verdict") as seen:
            rc = se.cli.main(argv)
        require(len(seen) == 1, f"{argv[1]}: no verdict written (rc={rc})")
        return rc, seen[0][0][0]

    @staticmethod
    def _innerball(se, argv):
        with _capture(se.cli, "uniform_condition_report") as seen:
            rc = se.cli.main(argv)
        require(len(seen) == 1, f"innerball: no report (rc={rc})")
        return rc, seen[0][1]

    @staticmethod
    def _check_verdict(exp, result):
        """The verdict must be this commit's rule applied to its report.

        Several sub-checks (the coverage trend, flag inclusion at a coarse
        grid) pass or fail with the seed, so the expected ``passed`` is
        recomputed from the report; recorded seeds also compare the whole
        report with reference.json.
        """
        rc, report = result
        require(rc == (0 if report["passed"] else 1),
                f"{exp}: exit code {rc} disagrees with passed")
        h = report["h"]
        if exp == "offset_identity":
            require(report["max_dev"] <= 1e-12,
                    f"offset identity deviates by {report['max_dev']!r}")
            rule = report["total_violations"] == 0
        elif exp == "lemma_gradient":
            rule = all(report[f"{s}_max_dev"] <= 10.0 * h
                       and report[f"{s}_wide_spread_frac"] >= 0.95
                       for s in ("disk", "square", "offset_square"))
        else:
            rule = (all(v <= 1 for k, v in report.items()
                        if k.endswith("_decreasing_steps"))
                    and report["offset128_ball_radius"] >= 0.1
                    and report["offset128_ball_in_base"]
                    and report["offset128_resid_max"] <= 10.0 * h)
        verdict_ok(report, bool(rule), exp)

    def _check_innerball(self, result):
        rc, report = result
        require(rc == 0, f"innerball exit code {rc}")
        radii_ok(report.profile.radii, self.IB_R_MAX, "innerball")


# ---------------------------------------------------------------------------
# sampled_rough: kd-tree detection and inner balls on the rough graph
# ---------------------------------------------------------------------------

class SampledRough:
    """The `counterexample` chain on the rough graph for truncation depths
    1 to 5, plus multiproj on a closed sampling of a seeded offset."""

    name = "sampled_rough"
    layers = ("geometry", "distance", "singular", "innerball")
    H = 1.0 / 32
    ALPHA, BASE, WINDOW, PAD = 0.5, 4, (0.5, 1.5), 0.3
    TUBE, COVER_R, R_MAX, FINE = 0.1, 0.05, 0.5, 16
    OFF_FACETS, OFF_EPS = 16, 0.3

    def setup(self, se, out_dir):
        h = self.H
        graphs = []
        for terms in range(1, 6):
            graph = se.GraphHypersurface(self.ALPHA, self.BASE, terms,
                                         window=self.WINDOW)
            grid = se.grid_covering(graph, h, margin=self.TUBE + 4 * h)
            graphs.append((terms, graph, grid))
        return {"graphs": graphs}

    def inputs(self, se, seed):
        return usable_seed(se, seed, ((self.OFF_FACETS, 0, 2),))

    def run_pass(self, se, op, seed, fixed):
        h = self.H
        lo, hi = self.WINDOW
        quarter = 0.25 * (hi - lo)
        for terms, graph, grid in fixed["graphs"]:
            tag = f"m{terms}"
            surf = op(f"{tag}.boundary_sample",
                      lambda: graph.boundary_sample(0.5 * h, pad=self.PAD))
            mask = op(f"{tag}.detect_multiproj",
                      lambda: se.detect_multiproj(surf, grid),
                      check=lambda m: mask_ok(m, tag),
                      keep=lambda m: m.flags)
            dk = op(f"{tag}.boundary_distance",
                    lambda: surf.boundary_distance(grid.points()).reshape(
                        grid.dims),
                    check=lambda d: distance_field_ok(d, h, tag),
                    keep=lambda d: d)
            x = grid.axes()[0]
            central = (x >= lo + quarter) & (x <= hi - quarter)
            region = (dk <= self.TUBE) & central[:, None]
            op(f"{tag}.coverage_density",
               lambda: se.coverage_density(mask, region, self.COVER_R),
               check=lambda c: require(0.0 <= c.covered_fraction <= 1.0,
                                       f"{tag}: coverage out of [0, 1]"),
               keep=lambda c: {"covered": c.covered_fraction,
                               "ball_radius": c.ball_radius})
            probe = op(f"{tag}.probe_sample",
                       lambda: graph.boundary_sample(h))
            fine = op(f"{tag}.fine_sample",
                      lambda: graph.boundary_sample(h / self.FINE))
            tau = max(1e-6 * graph.diameter(), 0.25 * h)
            op(f"{tag}.inner_ball_profile",
               lambda: se.inner_ball_profile(probe, h, r_max=self.R_MAX,
                                             tau_ball=tau, measured=fine),
               check=lambda p: radii_ok(p.radii, self.R_MAX, tag),
               keep=lambda p: p.radii)

        poly = op("offset.make_random_polytope",
                  lambda: se.make_random_polytope(self.OFF_FACETS, seed))
        body = op("offset.body", lambda: se.OffsetBody(poly, self.OFF_EPS))
        grid = op("offset.grid_covering", lambda: se.grid_covering(body, h))
        surf = op("offset.boundary_sample",
                  lambda: body.boundary_sample(0.5 * h),
                  check=lambda s: require(s.closed, "offset sampling open"))
        op("offset.detect_multiproj", lambda: se.detect_multiproj(surf, grid),
           check=lambda m: mask_ok(m, "offset"), keep=lambda m: m.flags)


# ---------------------------------------------------------------------------
# march_3d: fast marching and the 3D distance kernels
# ---------------------------------------------------------------------------

class March3D:
    """March on the unit disk, then distance fields, marching and gradjump
    on a seeded 3D polytope and its offset."""

    name = "march_3d"
    layers = ("geometry", "distance", "eikonal", "singular")
    DISK_H = 1.0 / 96
    H3, FACETS3, EPS3 = 0.6, 32, 0.3

    def setup(self, se, out_dir):
        disk = se.Ball((0.0, 0.0), 1.0)
        grid = se.grid_covering(disk, self.DISK_H)
        exact = np.abs(1.0 - np.linalg.norm(grid.points(), axis=1))
        return {"disk": disk, "grid": grid,
                "exact": exact.reshape(grid.dims)}

    def inputs(self, se, seed):
        return usable_seed(se, seed, ((self.FACETS3, 0, 3),))

    def run_pass(self, se, op, seed, fixed):
        disk, grid = fixed["disk"], fixed["grid"]
        h = grid.spacing
        prob = op("disk.problem_from_shape",
                  lambda: se.problem_from_shape(disk, grid))
        sol = op("disk.fast_march", lambda: se.fast_march(prob),
                 check=lambda s: self._disk_ok(s, fixed["exact"], h),
                 keep=lambda s: s.values)
        mask = op("disk.detect_gradjump", lambda: se.detect_gradjump(sol),
                  check=lambda m: mask_ok(m, "disk gradjump"),
                  keep=lambda m: m.flags)
        op("disk.residuals", lambda: se.residuals(sol, singular_mask=mask),
           check=lambda r: require(not r.empty and np.isfinite(r.max_abs),
                                   "disk residuals empty"),
           keep=lambda r: {"max_abs": r.max_abs, "mean_abs": r.mean_abs,
                           "eligible": r.n_eligible})

        poly = op("poly.make_random_polytope",
                  lambda: se.make_random_polytope(self.FACETS3, seed, dim=3))
        body = op("offset.body", lambda: se.OffsetBody(poly, self.EPS3))
        grid3 = op("grid_covering", lambda: se.grid_covering(body, self.H3))
        fields = {}
        for tag, shape in (("poly", poly), ("offset", body)):
            fields[tag] = op(
                f"{tag}.distance_field",
                lambda: se.distance_field(shape, grid3),
                check=lambda f: self._field_ok(f, tag, fields, poly),
                keep=lambda f: f.values)
            prob = op(f"{tag}.problem_from_shape",
                      lambda: se.problem_from_shape(shape, grid3))
            sol = op(f"{tag}.fast_march", lambda: se.fast_march(prob),
                     check=lambda s: require(
                         s.meta["unreachable"] == 0
                         and s.values.min() >= 0.0,
                         f"{tag}: march left nodes unreached or negative"),
                     keep=lambda s: s.values)
            op(f"{tag}.detect_gradjump", lambda: se.detect_gradjump(sol),
               check=lambda m: mask_ok(m, f"{tag} gradjump"),
               keep=lambda m: m.flags)

    def _field_ok(self, fld, tag, fields, poly):
        distance_field_ok(fld.values, self.H3, tag)
        if tag == "offset":
            # inside the base, offset distance = base distance + epsilon
            grid = fld.grid
            pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), -1)
            inside = np.asarray(poly.contains(pts.reshape(-1, grid.dim)))
            inside = inside.reshape(grid.dims)
            dev = np.abs(fld.values - fields["poly"].values
                         - self.EPS3)[inside]
            require(dev.size > 0 and float(dev.max()) <= 1e-12,
                    f"3D offset identity deviates by {float(dev.max())!r}")
    @staticmethod
    def _disk_ok(sol, exact, h):
        err = np.abs(sol.values - exact)
        require(np.isfinite(err).all() and float(err.max()) <= 2.0 * h,
                f"disk march off the exact distance by {float(err.max())!r}")


WORKLOADS = {w.name: w for w in (ExactConvex(), SampledRough(), March3D())}
