"""Inner tangent balls, uniform interior ball verdicts, and the
equivalence between flag-free interior room and uniform inner balls.

For a boundary point a with inner unit normal nu, the inner ball radius
rho(a) is the largest r <= r_max such that the ball of radius r centered at
a + r * nu stays inside the domain while touching the boundary at a.  The
test predicate is monotone in r (smaller tangent balls are nested inside
larger ones), so rho is found by bisection on

    boundary_distance(a + r * nu) >= r - tau_ball,

with tau_ball a small slack, by default TAU_BALL_FACTOR times the
diameter.  Sampled surfaces subtract half the sample spacing from measured
distances, so discretization errs on the failing side; their default slack
adds that half spacing back, since the tangency sample itself lies at
distance exactly r from the centre and would otherwise fail every ball.
An explicit tau_ball is used as given.

theorem_equivalence_check compares two statements on a grid:

  A: some grid node has an r_free-ball inside the domain that stays
     r_free away from every detected singular-set flag;
  B: some boundary patch has inner ball radius at least rho_min
     everywhere on it.

These agree on shapes where they can be decided at grid resolution; the
check reports both verdicts, the witnesses, and whether they agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import GridSpec, _node_distance
from .geometry import SampledSurface, _require
from .singular import SingularMask, detect_multiproj

TAU_BALL_FACTOR = 1e-6      # default slack, times diameter
BISECT_STEPS = 60
SOURCE_SEP_FACTOR = 3.0     # pairs closer than this (times spacing) on the
                            # surface are never collision candidates
COLLISION_TOL_FACTOR = 0.5  # image collision tolerance, times spacing
N_PATCHES = 8               # contiguous boundary patches of a verdict


class InnerBallError(ValueError):
    """Invalid inner ball query."""


def _measure(shape):
    """(distance, diameter, half spacing) of the shape balls are measured
    against.  A sampling's distance is its kd-tree distance less half its
    spacing, so discretization errs on the failing side; an exact shape
    measures its own boundary distance and has no half spacing."""
    if isinstance(shape, SampledSurface):
        tree = shape.tree()
        half = 0.5 * shape.spacing

        def dist(p):
            d, _ = tree.query(p)
            return d - half

        return dist, shape.diameter(), half
    return shape.boundary_distance, shape.diameter(), 0.0


def _inner_ball_radii(shape, points, normals, r_max, tau_ball=None):
    """Inner-ball radius at every (point, inner normal) row, by one
    bisection batched over the rows, and the slack tau_ball it used (the
    default of the module docstring when None).

    A point counts as on the boundary within _measure's half spacing, or
    within rounding on an exact shape.  Each row stops on its own when
    hi - lo falls to the tolerance, so every radius is what a bisection of
    that row alone returns.
    """
    _require(r_max, InnerBallError, "r_max must be finite and positive",
             positive=True)
    r_max = float(r_max)
    dist, diam, half = _measure(shape)
    if tau_ball is None:
        tau_ball = TAU_BALL_FACTOR * diam + half
    if not 0 <= tau_ball < np.inf:     # also rejects NaN
        raise InnerBallError(f"tau_ball must be finite and >= 0, "
                             f"got {tau_ball}")
    if np.any(dist(points) > (half or 1e-9 * max(1.0, diam))):
        raise InnerBallError("query point is not on the boundary")
    contains = getattr(shape, "contains", None)

    def fits(rows, r):
        c = points[rows] + r[:, None] * normals[rows]
        ok = dist(c) >= r - tau_ball
        if contains is not None:
            ok &= contains(c)
        return ok

    rows = np.arange(points.shape[0])
    radii = np.full(rows.size, r_max)
    rows = rows[~fits(rows, radii)]
    lo = np.zeros(rows.size)
    hi = np.full(rows.size, r_max)
    stop = max(1e-12 * diam, 1e-3 * tau_ball)
    for _ in range(BISECT_STEPS):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        ok = fits(rows, mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
        done = hi - lo <= stop
        radii[rows[done]] = lo[done]
        rows, lo, hi = rows[~done], lo[~done], hi[~done]
    radii[rows] = lo
    return radii, tau_ball


def inner_ball_radius(shape, a, nu, r_max, tau_ball=None):
    """Largest inner tangent ball radius at boundary point a, capped at r_max.

    nu must be the inner unit normal.  Returns a value in [0, r_max].
    """
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if a.shape != nu.shape or a.ndim != 1:
        raise InnerBallError("point and normal must be matching vectors")
    _require((a, nu), InnerBallError, "point and normal must be finite")
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise InnerBallError("normal must be a unit vector")
    return float(_inner_ball_radii(shape, a[None], nu[None], r_max,
                                   tau_ball)[0][0])


# ---------------------------------------------------------------------------
# boundary profiles and patch verdicts
# ---------------------------------------------------------------------------

@dataclass
class InnerBallProfile:
    """Inner ball radii along an ordered boundary sampling."""

    points: np.ndarray
    normals: np.ndarray
    radii: np.ndarray
    r_max: float
    tau_ball: float

    @property
    def min_radius(self):
        return float(self.radii.min())

    def to_csv(self, path):
        dim = self.points.shape[1]
        cols = ",".join(f"p{k}" for k in range(dim))
        ncols = ",".join(f"n{k}" for k in range(dim))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{cols},{ncols},rho\n")
            for p, nv, r in zip(self.points, self.normals, self.radii):
                row = ",".join(f"{v:.9g}" for v in p)
                row += "," + ",".join(f"{v:.9g}" for v in nv)
                fh.write(f"{row},{r:.9g}\n")


def inner_ball_profile(shape, spacing, r_max, tau_ball=None, measured=None):
    """Inner ball radius at every boundary sample of the shape.

    Exact shapes are sampled at the given spacing but measured against
    their exact distance; a SampledSurface is measured against itself.
    Pass measured to override, e.g. probe at coarse samples while checking
    containment against a much finer sampling of the same boundary.
    """
    if isinstance(shape, SampledSurface):
        surface = shape
    else:
        surface = shape.boundary_sample(spacing)
    if measured is None:
        measured = shape
    radii, tau_ball = _inner_ball_radii(measured, surface.points,
                                        surface.normals, r_max, tau_ball)
    return InnerBallProfile(points=surface.points, normals=surface.normals,
                            radii=radii, r_max=float(r_max),
                            tau_ball=float(tau_ball))


@dataclass
class PatchVerdict:
    start: int
    stop: int
    inf_rho: float
    ok: bool


@dataclass
class UniformConditionReport:
    """Per-patch infima of the inner ball radius and the overall verdict."""

    rho_min: float
    patches: list
    overall: bool
    profile: InnerBallProfile

    def summary_lines(self):
        lines = [f"rho_min={self.rho_min:.6g} overall={'pass' if self.overall else 'fail'}"]
        for k, p in enumerate(self.patches):
            lines.append(f"patch {k}: samples [{p.start},{p.stop}) "
                         f"inf_rho={p.inf_rho:.6g} "
                         f"{'pass' if p.ok else 'fail'}")
        return lines


def uniform_condition_report(shape, spacing, rho_min, r_max=None):
    """Verdict per contiguous boundary patch (N_PATCHES of them, at most one
    per sample): inf inner-ball radius >= rho_min."""
    _require(rho_min, InnerBallError, "rho_min must be finite and positive",
             positive=True)
    if r_max is None:
        r_max = 4.0 * rho_min
    if r_max < rho_min:
        raise InnerBallError("r_max below rho_min cannot decide the verdict")
    profile = inner_ball_profile(shape, spacing, r_max)
    n = profile.radii.shape[0]
    n_patches = max(1, min(N_PATCHES, n))
    bounds = np.linspace(0, n, n_patches + 1).astype(int)
    patches = []
    for k in range(n_patches):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        inf_rho = float(profile.radii[lo:hi].min())
        patches.append(PatchVerdict(start=lo, stop=hi, inf_rho=inf_rho,
                                    ok=inf_rho >= rho_min))
    return UniformConditionReport(rho_min=float(rho_min), patches=patches,
                                  overall=all(p.ok for p in patches),
                                  profile=profile)


# ---------------------------------------------------------------------------
# normal map injectivity
# ---------------------------------------------------------------------------

@dataclass
class InjectivitySample:
    t: float
    n_collisions: int
    example: tuple | None
    injective: bool
    capped: bool = False


@dataclass
class InjectivityReport:
    samples: list
    collision_tol: float
    source_separation: float
    rho_cap: float | None

    @property
    def all_injective(self):
        return all(s.injective for s in self.samples if not s.capped)

    def summary_lines(self):
        lines = [f"collision_tol={self.collision_tol:.6g} "
                 f"source_separation={self.source_separation:.6g} "
                 f"rho_cap={self.rho_cap}"]
        for s in self.samples:
            status = "capped" if s.capped else \
                ("injective" if s.injective else
                 f"{s.n_collisions} collisions")
            lines.append(f"t={s.t:.6g}: {status}")
        return lines


def normal_map_injectivity(surface, t_values, rho_cap=None):
    """Test injectivity of a + t * nu(a) over the sample set, per t.

    Pairs closer than 3 sample spacings along the surface are skipped
    (their images legitimately converge under curvature focusing); a
    collision is two far-apart sources mapping within COLLISION_TOL_FACTOR
    sample spacings.
    With rho_cap set, t values at or beyond the cap are reported as capped
    instead of tested, since tangent-ball geometry already guarantees
    injectivity below the cap and says nothing above it.
    """
    if not isinstance(surface, SampledSurface):
        raise InnerBallError("normal_map_injectivity needs a SampledSurface")
    if rho_cap is not None and not 0 <= rho_cap < np.inf:   # also NaN
        raise InnerBallError(f"rho_cap must be finite and >= 0: {rho_cap}")
    from scipy.spatial import cKDTree   # see geometry.ConvexPolytope.hull

    collision_tol = COLLISION_TOL_FACTOR * surface.spacing
    min_sep = SOURCE_SEP_FACTOR * surface.spacing
    samples = []
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        t = float(t)
        if not 0.0 <= t < np.inf:       # also rejects NaN
            raise InnerBallError(f"t values must be finite and >= 0: {t}")
        if rho_cap is not None and t >= rho_cap:
            samples.append(InjectivitySample(t=t, n_collisions=0,
                                             example=None, injective=True,
                                             capped=True))
            continue
        images = surface.points + t * surface.normals
        tree = cKDTree(images)
        pairs = tree.query_pairs(collision_tol, output_type="ndarray")
        n_coll = 0
        example = None
        if pairs.size:
            src = np.linalg.norm(surface.points[pairs[:, 0]]
                                 - surface.points[pairs[:, 1]], axis=1)
            genuine = pairs[src > min_sep]
            n_coll = int(genuine.shape[0])
            if n_coll:
                example = (int(genuine[0, 0]), int(genuine[0, 1]))
        samples.append(InjectivitySample(t=t, n_collisions=n_coll,
                                         example=example,
                                         injective=n_coll == 0))
    return InjectivityReport(samples=samples,
                             collision_tol=float(collision_tol),
                             source_separation=float(min_sep),
                             rho_cap=None if rho_cap is None
                             else float(rho_cap))


# ---------------------------------------------------------------------------
# equivalence of interior room and uniform inner balls
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    condition_a: bool
    condition_b: bool
    agree: bool
    witness: np.ndarray | None
    witness_clearance: float
    n_flags: int
    patch_report: UniformConditionReport
    params: dict = field(default_factory=dict)

    def as_dict(self):
        w = None if self.witness is None else [float(v) for v in self.witness]
        return {"condition_a": self.condition_a,
                "condition_b": self.condition_b,
                "agree": self.agree, "witness": w,
                "witness_clearance": self.witness_clearance,
                "n_flags": self.n_flags, **self.params}


def theorem_equivalence_check(shape, grid, r_free, rho_min=None, mask=None,
                              inside=None):
    """Decide conditions A (flag-free interior ball) and B (uniform inner
    balls) on one grid and report whether they agree.

    shape gives the boundary distance (distance._node_distance), the flags
    (detect_multiproj, unless a mask is given) and the inner balls, which
    uniform_condition_report samples at half the grid step with its
    default search cap.  A SampledSurface measures all of these against
    its sampling; it has no interior, so pass ``inside``, a boolean node
    mask for membership (it defaults to shape.contains at the nodes).
    r_free below 2 grid steps is rejected: condition A cannot be decided
    under grid resolution.
    """
    if not isinstance(grid, GridSpec):
        raise InnerBallError("grid must be a GridSpec")
    h = float(grid.spacing)
    if r_free < 2.0 * h:
        raise InnerBallError(
            f"r_free={r_free:.6g} is below grid resolution 2h={2 * h:.6g}")
    if rho_min is None:
        rho_min = r_free
    spacing = 0.5 * h
    if mask is None:
        mask = detect_multiproj(shape, grid)
    elif not isinstance(mask, SingularMask):
        raise InnerBallError("mask must be a SingularMask")
    dK = _node_distance(shape, grid).reshape(grid.dims)
    if inside is None:
        if not hasattr(shape, "contains"):
            raise InnerBallError(
                "shape has no interior membership; pass inside=node mask")
        inside = shape.contains(grid.points()).reshape(grid.dims)
    if np.shape(inside) != tuple(grid.dims) or np.asarray(inside).dtype != bool:
        raise InnerBallError("inside must be a boolean node mask of the grid")
    flag_dist = mask.distance_to_flags()

    # clearance from the grid rim, so the candidate ball stays inside the
    # analyzed window even when the domain itself is truncated by it
    rim = np.full(grid.dims, np.inf)
    for ax in range(grid.dim):
        coord = grid.origin[ax] + h * np.arange(grid.dims[ax])
        lo_c = coord - grid.origin[ax]
        hi_c = (grid.upper()[ax]) - coord
        shape_ax = [1] * grid.dim
        shape_ax[ax] = -1
        rim = np.minimum(rim, np.minimum(lo_c, hi_c).reshape(shape_ax))

    ok = inside & (dK >= r_free) & (flag_dist >= r_free) & (rim >= r_free)
    condition_a = bool(ok.any())
    witness = None
    clearance = 0.0
    if condition_a:
        score = np.where(ok, np.minimum(dK, flag_dist), -np.inf)
        idx = np.unravel_index(int(np.argmax(score)), grid.dims)
        witness = grid.node_point(idx)
        clearance = float(score[idx])

    report = uniform_condition_report(shape, spacing, rho_min)
    # B asks for the existence of one patch where inner balls of radius
    # rho_min fit everywhere, not for the bound to hold globally
    condition_b = any(p.ok for p in report.patches)

    return EquivalenceReport(
        condition_a=condition_a, condition_b=condition_b,
        agree=condition_a == condition_b,
        witness=witness, witness_clearance=clearance,
        n_flags=mask.n_flags, patch_report=report,
        params={"r_free": float(r_free), "rho_min": float(rho_min),
                "h": h, "spacing": spacing, "n_patches": N_PATCHES})
