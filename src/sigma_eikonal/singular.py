"""Grid detectors for the singular set of a boundary distance function.

The singular set of the distance to a closed set K is the set of points,
off K, whose nearest point on K is not unique.  On a grid this is detected
two independent ways:

* detect_multiproj flags nodes whose nearest-point set, resolved at a
  grid-scale tolerance, has spread above that tolerance (genuinely distinct
  nearest-point basins).  Each node is a row of the rows function that
  projection._resolver picks for the shape's family, the one project
  answers from; this module keeps no per-family resolution code, only
  the choice of where the boundary distance comes from.
* detect_gradjump flags nodes where one-sided gradients of a distance field
  disagree in direction beyond a threshold angle, which is the finite
  difference signature of a gradient jump.
* detect_footjump flags nodes next to a confirmed discontinuity of the
  nearest-foot map of a fine sampling, found by bisecting grid edges.  It
  has no tie window, so it also sees branches whose two nearest points lie
  closer together than a grid step, which detect_multiproj merges into
  one basin (the lambda-medial axis effect).

All detectors leave a band of width ``BAND_FACTOR * h`` around K
unclassified: there the distance is below grid resolution and neither
signal is meaningful.  Flags never appear inside the band.

coverage_density measures how much of a region the dilated flag set
covers, and locates the largest flag-free grid ball, which is the grid
analogue of asking whether the singular set comes near every interior
point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .distance import (
    GridSpec,
    ScalarField,
    _node_distance,
    _read_header,
    _remember_distance,
    _write_file,
)
from .geometry import SampledSurface
from .projection import _cycle_rows, _ellipse_rows, _resolver

BAND_FACTOR = 2.0           # unclassified band around K, in grid steps
DEFAULT_THETA_DEG = 30.0    # gradient disagreement angle threshold
FOOT_MOVE_FACTOR = 0.5      # footjump bisects edges whose feet move more
                            # than this, in grid steps
FOOT_BISECT_STEPS = 8       # halvings of each bisected edge
FOOT_JUMP_FACTOR = 25.0     # confirmed foot gap, in sample spacings

MASK_MAGIC = "singular_mask"

CLEAR, FLAG, EXCLUDED = 0, 1, 2


class DetectionError(ValueError):
    """Invalid detector input."""


@dataclass
class SingularMask:
    """Boolean singular-set flags on a grid, plus the unclassified band."""

    grid: GridSpec
    flags: np.ndarray
    excluded: np.ndarray
    detector: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(self.grid.dims)
        if self.flags.shape != dims or self.excluded.shape != dims:
            raise DetectionError("mask arrays must match the grid dims")
        if bool(np.any(self.flags & self.excluded)):
            raise DetectionError("flags inside the unclassified band")

    @property
    def n_flags(self):
        return int(self.flags.sum())

    def flagged_points(self):
        idx = np.argwhere(self.flags)
        return self.grid.origin + idx * self.grid.spacing

    def distance_to_flags(self):
        """Per-node Euclidean distance to the nearest flagged node."""
        if not self.flags.any():
            return np.full(self.flags.shape, np.inf)
        return ndimage.distance_transform_edt(
            ~self.flags, sampling=self.grid.spacing)

    def save(self, path):
        codes = np.full(self.flags.shape, CLEAR, dtype=np.uint8)
        codes[self.excluded] = EXCLUDED
        codes[self.flags] = FLAG
        _write_file(path, self.grid, codes.tobytes(order="C"),
                    head=[f"magic={MASK_MAGIC}"],
                    tail=[f"detector={self.detector}",
                          "params=" + json.dumps(self.params, sort_keys=True)])

    @classmethod
    def load(cls, path):
        """Read a mask that save wrote.  A truncated or malformed header or
        payload, or a code other than CLEAR, FLAG or EXCLUDED, raises
        DetectionError."""
        with open(path, "rb") as fh:
            header, grid = _read_header(fh, path, DetectionError)
            raw = fh.read(grid.n_nodes)
        if header.get("magic") != MASK_MAGIC:
            raise DetectionError(f"{path}: not a singular mask file")
        try:
            params = json.loads(header.get("params", "{}"))
        except json.JSONDecodeError as exc:
            raise DetectionError(f"{path}: bad params header: {exc}") from exc
        if len(raw) != grid.n_nodes:
            raise DetectionError(f"{path}: truncated mask payload")
        codes = np.frombuffer(raw, dtype=np.uint8).reshape(grid.dims)
        if not np.isin(codes, (CLEAR, FLAG, EXCLUDED)).all():
            raise DetectionError(f"{path}: mask code outside "
                                 f"{{{CLEAR}, {FLAG}, {EXCLUDED}}}")
        return cls(grid=grid, flags=codes == FLAG, excluded=codes == EXCLUDED,
                   detector=header.get("detector", "unknown"), params=params)

    def summary(self):
        return {"detector": self.detector, "n_flags": self.n_flags,
                "n_excluded": int(self.excluded.sum()),
                "n_nodes": int(np.prod(self.grid.dims))}


# ---------------------------------------------------------------------------
# multiple-projection detector
# ---------------------------------------------------------------------------

def detect_multiproj(shape, grid, tau_multi=None):
    """Flag grid nodes whose nearest-point set on the boundary is multiple.

    tau_multi defaults to the grid step: near-ties below one node of
    distance cannot be resolved and do not count as multiplicity.  The
    nodes are rows of the shape family's rows function, the one that
    project answers from (projection._resolver, which also checks the
    shape, the grid's dimension and the tie window), resolved only where
    they can be ties, and a node is flagged when its spread exceeds
    tau_multi: exactly when project(shape, node, tau_multi) is not a
    singleton.  The boundary distance that sets the band is the (shape,
    grid) node memo's (distance._node_distance).  A 2D polytope, offset
    or ellipse computes it in the same pass over every node, and that
    pass stores it as the shape's memo; every other shape reads the memo
    and leaves its band nodes out of the resolution.  A graph has no
    boundary distance and raises GeometryError: detect on its
    boundary_sample.
    """
    if not isinstance(grid, GridSpec):
        raise DetectionError("grid must be a GridSpec")
    h = float(grid.spacing)
    pts = grid.points()
    rows, tau_multi = _resolver(
        shape, pts, h if tau_multi is None else tau_multi, DetectionError)
    band = BAND_FACTOR * h
    if rows in (_cycle_rows, _ellipse_rows):
        dK, _, _, spread, stats = rows(shape, pts, tau_multi, False)
        dK = _remember_distance(shape, grid, dK)
        excluded = dK <= band
    else:
        dK = _node_distance(shape, grid)
        excluded = dK <= band
        active = np.flatnonzero(~excluded)
        spread = np.zeros(pts.shape[0])
        _, _, _, spread[active], stats = rows(shape, pts[active], tau_multi,
                                              False, dK[active])
    params = {"tau_multi": float(tau_multi), "band_factor": float(BAND_FACTOR),
              **stats}
    flags = (spread > tau_multi) & ~excluded
    return SingularMask(grid=grid, flags=flags.reshape(grid.dims),
                        excluded=excluded.reshape(grid.dims),
                        detector="multiproj", params=params)


# ---------------------------------------------------------------------------
# foot-jump detector
# ---------------------------------------------------------------------------

def detect_footjump(surface, grid, region=None):
    """Flag nodes next to a confirmed jump of the nearest-foot map.

    Every node in region (a boolean node mask, default the whole grid)
    gets its nearest sample on the SampledSurface, which should be much
    finer than the grid.  Each grid edge between two such nodes whose feet
    lie more than FOOT_MOVE_FACTOR steps apart is halved FOOT_BISECT_STEPS
    times, keeping the half whose end feet lie farther apart.  If the end
    feet are still more than FOOT_JUMP_FACTOR sample spacings apart, the
    edge crosses a discontinuity of the nearest-point map, which is a point
    of the singular set, and the end node nearer the crossing is flagged.
    A continuous foot map moves its feet by the final edge length times the
    focal stretch, which stays below that gap except next to focal points.

    Nodes outside region or within BAND_FACTOR steps of the surface are
    unclassified.  params records the settings and the number of bisected
    edges.
    """
    if not isinstance(surface, SampledSurface):
        raise DetectionError("detect_footjump needs a SampledSurface")
    if not isinstance(grid, GridSpec):
        raise DetectionError("grid must be a GridSpec")
    dims = tuple(grid.dims)
    if region is None:
        region = np.ones(dims, dtype=bool)
    region = np.asarray(region, dtype=bool)
    if region.shape != dims:
        raise DetectionError("region must be a node mask matching the grid")
    h = float(grid.spacing)
    pts = grid.points()
    inside = region.reshape(-1)
    rows = np.flatnonzero(inside)
    tree = surface.tree()
    excluded = ~inside
    foot = np.zeros(pts.shape[0], dtype=np.intp)
    if rows.size:
        dK, foot[rows] = tree.query(pts[rows])
        excluded[rows] = dK <= BAND_FACTOR * h

    node = np.arange(pts.shape[0]).reshape(dims)
    a_parts, b_parts = [], []
    for ax in range(grid.dim):
        a_parts.append(np.take(node, np.arange(dims[ax] - 1), axis=ax)
                       .reshape(-1))
        b_parts.append(np.take(node, np.arange(1, dims[ax]), axis=ax)
                       .reshape(-1))
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    samples = surface.points
    keep = inside[a] & inside[b]
    a, b = a[keep], b[keep]
    moved = np.linalg.norm(samples[foot[a]] - samples[foot[b]], axis=1) \
        > FOOT_MOVE_FACTOR * h
    a, b = a[moved], b[moved]

    pa, pb = pts[a], pts[b]
    fa, fb = foot[a], foot[b]
    for _ in range(FOOT_BISECT_STEPS):
        pm = 0.5 * (pa + pb)
        _, fm = tree.query(pm)
        # keep the half whose end feet lie farther apart
        left = np.linalg.norm(samples[fm] - samples[fa], axis=1) \
            >= np.linalg.norm(samples[fm] - samples[fb], axis=1)
        pb = np.where(left[:, None], pm, pb)
        fb = np.where(left, fm, fb)
        pa = np.where(left[:, None], pa, pm)
        fa = np.where(left, fa, fm)
    gap = np.linalg.norm(samples[fa] - samples[fb], axis=1)
    jump = gap > FOOT_JUMP_FACTOR * surface.spacing
    cross = 0.5 * (pa + pb)
    near_a = np.linalg.norm(cross - pts[a], axis=1) \
        <= np.linalg.norm(cross - pts[b], axis=1)
    flags = np.zeros(pts.shape[0], dtype=bool)
    flags[np.where(near_a, a, b)[jump]] = True
    flags &= ~excluded
    return SingularMask(grid=grid, flags=flags.reshape(dims),
                        excluded=excluded.reshape(dims),
                        detector="footjump",
                        params={"sample_spacing": float(surface.spacing),
                                "move_tol": FOOT_MOVE_FACTOR * h,
                                "bisect_steps": FOOT_BISECT_STEPS,
                                "jump_gap": FOOT_JUMP_FACTOR
                                * float(surface.spacing),
                                "band_factor": BAND_FACTOR,
                                "bisected_edges": int(a.size)})


# ---------------------------------------------------------------------------
# gradient-jump detector
# ---------------------------------------------------------------------------

def detect_gradjump(fld, theta_deg=DEFAULT_THETA_DEG):
    """Flag nodes where one-sided gradient combinations disagree in angle.

    The input must be an unsigned distance field (or an eikonal solution,
    which approximates one).  At each interior node the forward/backward
    difference choices per axis give 2^dim one-sided gradient estimates;
    a minimum pairwise cosine below cos(theta_deg), theta_deg in (0, 180],
    marks a gradient jump (_one_sided_cosines).  A node is classified only
    where all 2 dim differences are finite, and flagged only where no
    estimate is (near) zero.
    """
    if not isinstance(fld, ScalarField):
        raise DetectionError("detect_gradjump expects a ScalarField")
    if fld.kind not in ("distance", "eikonal_solution"):
        raise DetectionError(
            f"gradient-jump detection needs a distance-like field, "
            f"got kind={fld.kind!r}")
    if any(n < 4 for n in fld.grid.dims):
        raise DetectionError("need at least 4 nodes per axis")
    if not 0 < theta_deg <= 180:     # also rejects NaN
        raise DetectionError(f"theta_deg must be in (0, 180], "
                             f"got {theta_deg}")
    u = fld.values
    h = float(fld.grid.spacing)
    ok, safe, min_cos = _one_sided_cosines(u, h)
    theta = math.radians(theta_deg)
    jump = ok & safe & (min_cos < math.cos(theta))

    excluded = ~ok | (u <= BAND_FACTOR * h) | ~np.isfinite(u)
    flags = jump & ~excluded
    return SingularMask(grid=fld.grid, flags=flags, excluded=excluded,
                        detector="gradjump",
                        params={"theta_deg": float(theta_deg),
                                "band_factor": BAND_FACTOR})


def _one_sided_cosines(u, h):
    """(ok, safe, min_cos) at every node of the field values u.

    ok: all 2 dim one-sided differences are finite; safe: no estimate has
    norm <= 1e-12 (such an estimate is the zero vector); min_cos: the
    smallest cosine between two estimates' unit vectors, NaN where not ok.

    The estimates are never stacked: each one's unit vector is built per
    axis from the difference arrays, and the minimum runs over the pairs
    i <= j of the symmetric cosine matrix, whose diagonal is |u_i|^2.  Each
    norm sums the squares in axis order, as np.linalg.norm does, and each
    cosine sums its products in the order of the (n, 2^dim, 2^dim) einsum
    this replaced, which is (x0 y0 + x2 y2) + x1 y1 in 3D on numpy 2.4, so
    min_cos is the same floats as that einsum's (``tests/oracles.py``
    compares them).
    """
    dim = u.ndim
    # sides[ax] = (backward, forward) differences, NaN off the grid
    sides = []
    ok = np.ones(u.shape, dtype=bool)
    for ax in range(dim):
        f = np.full(u.shape, np.nan)
        b = np.full(u.shape, np.nan)
        sl = [slice(None)] * dim
        sr = [slice(None)] * dim
        sl[ax] = slice(0, -1)
        sr[ax] = slice(1, None)
        f[tuple(sl)] = (u[tuple(sr)] - u[tuple(sl)]) / h
        b[tuple(sr)] = f[tuple(sl)]
        sides.append((b, f))
        ok &= np.isfinite(f) & np.isfinite(b)
    square = [(b * b, f * f) for b, f in sides]

    # unit[c][ax]: estimate c takes the forward difference on the axes of
    # its set bits
    unit = []
    safe = np.ones(u.shape, dtype=bool)
    for c in range(1 << dim):
        bits = [(c >> ax) & 1 for ax in range(dim)]
        norm = square[0][bits[0]]
        for ax in range(1, dim):
            norm = norm + square[ax][bits[ax]]
        norm = np.sqrt(norm)
        nonzero = norm > 1e-12
        safe &= nonzero
        scale = np.where(nonzero, norm, 1.0)
        unit.append([np.where(nonzero, sides[ax][bits[ax]] / scale, 0.0)
                     for ax in range(dim)])
    min_cos = None
    for i, x in enumerate(unit):
        for y in unit[i:]:
            if dim == 2:
                cos = x[0] * y[0] + x[1] * y[1]
            else:
                cos = x[0] * y[0] + x[2] * y[2] + x[1] * y[1]
            min_cos = cos if min_cos is None else np.minimum(min_cos, cos)
    return ok, safe, min_cos


# ---------------------------------------------------------------------------
# mask comparison and coverage
# ---------------------------------------------------------------------------

def inclusion_violations(inner, outer, radius):
    """Count flags of ``inner`` farther than ``radius`` from any ``outer`` flag.

    Both masks must share a grid.  Returns (count, index array).
    """
    if inner.grid != outer.grid:
        raise DetectionError("masks live on different grids")
    if not 0 <= radius < math.inf:     # also rejects NaN
        raise DetectionError(f"radius {radius} must be finite and >= 0")
    dist = outer.distance_to_flags()
    bad = inner.flags & (dist > radius)
    return int(bad.sum()), np.argwhere(bad)


def mask_agreement(a, b, radius):
    """Symmetric difference of two masks after dilation by ``radius``.

    Returns the fraction of flags (of either mask) not matched by the
    other mask within the radius.  Nodes unclassified by either detector
    are ignored.
    """
    if a.grid != b.grid:
        raise DetectionError("masks live on different grids")
    if not 0 <= radius < math.inf:     # also rejects NaN
        raise DetectionError(f"radius {radius} must be finite and >= 0")
    valid = ~(a.excluded | b.excluded)
    fa = a.flags & valid
    fb = b.flags & valid
    total = int(fa.sum() + fb.sum())
    if total == 0:
        return 0.0, 0
    da = ndimage.distance_transform_edt(~fa, sampling=a.grid.spacing) \
        if fa.any() else np.full(fa.shape, np.inf)
    db = ndimage.distance_transform_edt(~fb, sampling=b.grid.spacing) \
        if fb.any() else np.full(fb.shape, np.inf)
    unmatched = int((fa & (db > radius)).sum() + (fb & (da > radius)).sum())
    return unmatched / total, unmatched


@dataclass
class DensityReport:
    """Coverage of a region by the dilated flag set.

    interior_ball is the largest grid ball contained in the r-dilation of
    the flags (restricted to the region): the finite-resolution proxy for
    the flag closure having interior points.
    """

    region: str
    r: float
    covered_fraction: float
    n_flags: int
    n_region_nodes: int
    ball_center: np.ndarray | None
    ball_radius: float


def coverage_density(mask, region, r):
    """Fraction of region nodes within r of a flag, and the largest grid
    ball fully inside that dilation.

    region is None (whole grid box), a shape with interior membership, or
    a boolean node mask of shape grid.dims (another shape raises
    DetectionError).  r must be finite and at least one step.
    """
    h = float(mask.grid.spacing)
    if not h <= r < math.inf:     # also rejects NaN
        raise DetectionError(f"dilation radius {r} must be finite and at "
                             f"least one grid step")
    if region is None:
        region_mask = np.ones(mask.grid.dims, dtype=bool)
        label = "grid"
    elif isinstance(region, np.ndarray):
        if region.shape != tuple(mask.grid.dims):
            raise DetectionError(
                "region must be a node mask matching the grid")
        region_mask = region.astype(bool)
        label = "mask"
    else:
        pts = mask.grid.points()
        region_mask = np.asarray(region.contains(pts)).reshape(mask.grid.dims)
        label = getattr(region, "describe", lambda: "shape")()
    n_region = int(region_mask.sum())
    if n_region == 0:
        raise DetectionError("region contains no grid nodes")

    dist = mask.distance_to_flags()
    dilation = dist <= r
    frac = (dilation & region_mask).sum() / n_region

    # largest ball inside dilation-within-region: EDT padded with blocked
    # cells so the region complement and the grid rim count as walls
    inside = dilation & region_mask
    pad = np.zeros(tuple(n + 2 for n in mask.grid.dims), dtype=bool)
    core = tuple(slice(1, -1) for _ in mask.grid.dims)
    pad[core] = inside
    edt = ndimage.distance_transform_edt(pad, sampling=mask.grid.spacing)
    edt = edt[core]
    idx = np.unravel_index(int(np.argmax(edt)), mask.grid.dims)
    radius = float(edt[idx])
    if radius <= 0.0:
        return DensityReport(region=label, r=float(r),
                             covered_fraction=float(frac),
                             n_flags=mask.n_flags, n_region_nodes=n_region,
                             ball_center=None, ball_radius=0.0)
    center = mask.grid.node_point(idx)
    return DensityReport(region=label, r=float(r),
                         covered_fraction=float(frac),
                         n_flags=mask.n_flags, n_region_nodes=n_region,
                         ball_center=center, ball_radius=radius)
