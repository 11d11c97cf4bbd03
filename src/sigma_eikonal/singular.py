"""Grid detectors for the singular set of a boundary distance function.

The singular set of the distance to a closed set K is the set of points,
off K, whose nearest point on K is not unique.  On a grid this is detected
two independent ways:

* detect_multiproj flags nodes whose nearest-point set, resolved at a
  grid-scale tolerance, has spread above that tolerance (genuinely distinct
  nearest-point basins).
* detect_gradjump flags nodes where one-sided gradients of a distance field
  disagree in direction beyond a threshold angle, which is the finite
  difference signature of a gradient jump.
* detect_footjump flags nodes next to a confirmed discontinuity of the
  nearest-foot map of a fine sampling, found by bisecting grid edges.  It
  has no tie window, so it also sees branches whose two nearest points lie
  closer together than a grid step, which detect_multiproj merges into
  one basin (the lambda-medial axis effect).

All detectors leave a band of width ``band_factor * h`` around K
unclassified: there the distance is below grid resolution and neither
signal is meaningful.  Flags never appear inside the band.

coverage_density measures how much of a region the dilated flag set
covers, and locates the largest flag-free grid ball, which is the grid
analogue of asking whether the singular set comes near every interior
point.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .distance import GridSpec, ScalarField
from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    _element_distance_blocks,
    _element_query,
)
from .projection import (
    _ball_centre,
    _box_diagonals,
    _convex_base,
    _keep_rows,
    _nearest_elements,
    _sampled_rows,
    _slack_feet,
    _spreads,
)

BAND_FACTOR = 2.0           # unclassified band around K, in grid steps
DEFAULT_THETA_DEG = 30.0    # gradient disagreement angle threshold
FOOT_MOVE_FACTOR = 0.5      # footjump bisects edges whose feet move more
                            # than this, in grid steps
FOOT_BISECT_STEPS = 8       # halvings of each bisected edge
FOOT_JUMP_FACTOR = 25.0     # confirmed foot gap, in sample spacings
SAMPLED_ROWS_PER_CHUNK = 16384  # kd-tree candidate rows resolved at once

MASK_MAGIC = "singular_mask"

CLEAR, FLAG, EXCLUDED = 0, 1, 2


class DetectionError(ValueError):
    """Invalid detector input."""


@dataclass
class SingularMask:
    """Boolean singular-set flags on a grid, plus the unclassified band.

    ``distance`` is the boundary distance at every node, shape grid.dims,
    as detect_multiproj computed it for the band; it is None where the
    detector measured a sampling in place of the shape, and on a loaded
    mask (the file holds flags and band only).
    """

    grid: GridSpec
    flags: np.ndarray
    excluded: np.ndarray
    detector: str
    params: dict = field(default_factory=dict)
    distance: np.ndarray | None = None

    def __post_init__(self):
        dims = tuple(self.grid.dims)
        if self.flags.shape != dims or self.excluded.shape != dims:
            raise DetectionError("mask arrays must match the grid dims")
        if self.distance is not None and self.distance.shape != dims:
            raise DetectionError("mask distance must match the grid dims")
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
        with open(path, "wb") as fh:
            head = io.StringIO()
            head.write(f"magic={MASK_MAGIC}\n")
            head.write("dims=" + ",".join(str(n) for n in self.grid.dims)
                       + "\n")
            head.write("origin=" + ",".join(repr(float(v))
                                            for v in self.grid.origin) + "\n")
            head.write(f"spacing={self.grid.spacing!r}\n")
            head.write(f"detector={self.detector}\n")
            head.write("params=" + json.dumps(self.params, sort_keys=True)
                       + "\n")
            head.write("end\n")
            fh.write(head.getvalue().encode("ascii"))
            fh.write(codes.tobytes(order="C"))

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            header = {}
            while True:
                line = fh.readline().decode("ascii").strip()
                if line == "end":
                    break
                if not line:
                    raise DetectionError("truncated mask header")
                key, _, val = line.partition("=")
                header[key] = val
            if header.get("magic") != MASK_MAGIC:
                raise DetectionError("not a singular mask file")
            dims = tuple(int(v) for v in header["dims"].split(","))
            origin = tuple(float(v) for v in header["origin"].split(","))
            grid = GridSpec(origin=origin,
                            spacing=float(header["spacing"]), dims=dims)
            n = int(np.prod(dims))
            codes = np.frombuffer(fh.read(n), dtype=np.uint8).reshape(dims)
        try:
            params = json.loads(header.get("params", "{}"))
        except json.JSONDecodeError as exc:
            raise DetectionError(f"bad params header: {exc}") from exc
        return cls(grid=grid, flags=codes == FLAG, excluded=codes == EXCLUDED,
                   detector=header.get("detector", "unknown"), params=params)

    def summary(self):
        return {"detector": self.detector, "n_flags": self.n_flags,
                "n_excluded": int(self.excluded.sum()),
                "n_nodes": int(np.prod(self.grid.dims))}


# ---------------------------------------------------------------------------
# multiple-projection detector
# ---------------------------------------------------------------------------

def detect_multiproj(shape, grid, tau_multi=None, band_factor=BAND_FACTOR):
    """Flag grid nodes whose nearest-point set on the boundary is multiple.

    tau_multi defaults to the grid step: near-ties below one node of
    distance cannot be resolved and do not count as multiplicity.  2D
    polytopes and offsets resolve their element cycles, and take the
    boundary distance from the same element distance matrix; 3D ones take
    the closed form over facet slacks, so no node outside a convex body is
    flagged; sampled surfaces split kd-tree candidates into chain runs.
    Each row's feet are resolved by the projection module's helpers, so a
    node is flagged exactly when project(shape, node, tau_multi) is not a
    singleton.  The mask carries the boundary distance as ``distance``,
    unless the shape was replaced by a sampling (Ellipse,
    GraphHypersurface).
    """
    if not isinstance(grid, GridSpec):
        raise DetectionError("grid must be a GridSpec")
    h = float(grid.spacing)
    if tau_multi is None:
        tau_multi = h
    if tau_multi < 0:
        raise DetectionError("tau_multi must be nonnegative")
    if isinstance(shape, Box):
        shape = shape.as_polytope()
    swapped = isinstance(shape, (Ellipse, GraphHypersurface))
    if swapped:
        # no exact element enumeration; detect against a fine sampling
        shape = shape.boundary_sample(0.5 * h)

    pts = grid.points()
    band = band_factor * h
    params = {"tau_multi": float(tau_multi), "band_factor": float(band_factor)}

    if isinstance(shape, (ConvexPolytope, OffsetBody)) and shape.dim == 2:
        flags, dK = _detect_cycle(shape, pts, band, tau_multi)
        excluded = dK <= band
    else:
        dK = shape.boundary_distance(pts)
        excluded = dK <= band
        if isinstance(shape, Ball):
            flags = _ball_centre(shape, pts)
        elif isinstance(shape, SampledSurface):
            flags, counts = _detect_sampled(shape, pts, dK, excluded,
                                            tau_multi)
            params.update(counts)
        elif isinstance(shape, (ConvexPolytope, OffsetBody)):
            flags = _detect_slack(shape, pts, excluded, tau_multi)
        else:
            raise DetectionError(
                f"no multiplicity detector for {type(shape).__name__}")

    flags = flags.reshape(grid.dims) & ~excluded.reshape(grid.dims)
    return SingularMask(grid=grid, flags=flags,
                        excluded=excluded.reshape(grid.dims),
                        detector="multiproj", params=params,
                        distance=None if swapped else dK.reshape(grid.dims))


def _detect_cycle(shape, pts, band, tau_multi):
    """Exact 2D detection over the element cycle of a polytope or offset.

    Each node block's element distance matrix gives the boundary distance
    dK (its row minimum), the band (dK <= band) and the prefilter: the
    elements projection._nearest_elements keeps.  The feet of rows keeping
    two or more elements come from one geometry._element_query call in
    cycle order, and projection._spreads dedupes them, first come first
    kept, and measures their spread: the junction rule and spreads of
    projection._cycle_rows, the rows resolver that project answers from,
    here read off the distance matrix and run only on the rows the
    prefilter leaves.  Returns (flags, dK).
    """
    diam = shape.diameter()
    n = pts.shape[0]
    flags = np.zeros(n, dtype=bool)
    dK = np.empty(n)
    eq_tol = 1e-12 * max(1.0, diam)
    cand_rows, cand_kept = [], []
    for sel, dist, clamp in _element_distance_blocks(shape, pts):
        d_opt, kept = _nearest_elements(dist, clamp, tau_multi, eq_tol)
        dK[sel] = d_opt
        rows = np.flatnonzero((d_opt > band) & (kept.sum(axis=1) >= 2))
        cand_rows.append(sel.start + rows)
        cand_kept.append(kept[rows])
    rows = np.concatenate(cand_rows)
    kept = np.concatenate(cand_kept)
    row, elem = np.nonzero(kept)            # row-major: cycle order per row
    feet = _element_query(shape, pts[rows[row]], elem)[1]
    flags[rows] = _spreads(feet, kept.sum(axis=1),
                           1e-9 * max(1.0, diam))[1] > tau_multi
    return flags, dK


def _flatten(lists):
    """Row lengths and concatenated entries of a list of index lists."""
    count = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    return count, np.fromiter(itertools.chain.from_iterable(lists),
                              dtype=np.intp, count=int(count.sum()))


def _detect_sampled(surface, pts, dK, excluded, tau_multi):
    """Sampled-surface detection, in chunks of SAMPLED_ROWS_PER_CHUNK rows.

    Each chunk's kd-tree candidates within tau_multi of the optimum become
    flat (CSR) rows.  Rows of one candidate, or whose candidate bounding
    box is no wider than tau_multi (the spread cannot exceed it), are not
    flagged; projection._sampled_rows resolves the rest.  Returns the flags
    and the counts of candidate rows (two or more candidates spread over
    more than tau_multi) and of rows split into several candidate runs.
    """
    tree = surface.tree()
    flags = np.zeros(pts.shape[0], dtype=bool)
    counts = {"candidate_rows": 0, "multi_run_rows": 0}
    active = np.flatnonzero(~excluded)
    for lo in range(0, active.size, SAMPLED_ROWS_PER_CHUNK):
        rows = active[lo:lo + SAMPLED_ROWS_PER_CHUNK]
        # the query lists and the candidate points die inside the helpers
        count, idx = _flatten(tree.query_ball_point(
            pts[rows], dK[rows] + tau_multi, return_sorted=True))
        (rows, count), (idx,) = _keep_rows(count >= 2, count, (rows, count),
                                           (idx,))
        if rows.size == 0:
            continue
        span = _box_diagonals(surface.points[idx], np.cumsum(count) - count)
        (rows, count, span), (idx,) = _keep_rows(
            span > tau_multi, count, (rows, count, span), (idx,))
        counts["candidate_rows"] += int(rows.size)
        if rows.size == 0:
            continue
        spread, multi, _ = _sampled_rows(surface, pts[rows], count, idx, span)
        counts["multi_run_rows"] += int(multi.sum())
        flags[rows] = spread > tau_multi
    return flags, counts


def _detect_slack(shape, pts, excluded, tau_multi):
    """3D convex polytopes and offsets: a row is flagged when the spread of
    its facet-slack feet (projection._slack_feet) exceeds tau_multi, which
    is project(shape, x, tau_multi).is_singleton being False.  Points
    outside the base keep no foot and are never flagged.
    """
    base, eps = _convex_base(shape)
    flags = np.zeros(pts.shape[0], dtype=bool)
    active = np.flatnonzero(~excluded)
    chunk = max(1, 4_000_000 // base.normals.shape[0])
    for lo in range(0, active.size, chunk):
        rows = active[lo:lo + chunk]
        row, feet = _slack_feet(base, pts[rows], tau_multi, eps)
        count = np.bincount(row, minlength=rows.size)
        several = count >= 2
        flags[rows[several]] = _spreads(
            feet[np.repeat(several, count)], count[several])[1] > tau_multi
    return flags


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
    a maximum pairwise angle above theta_deg marks a gradient jump.
    """
    if not isinstance(fld, ScalarField):
        raise DetectionError("detect_gradjump expects a ScalarField")
    if fld.kind not in ("distance", "eikonal_solution"):
        raise DetectionError(
            f"gradient-jump detection needs a distance-like field, "
            f"got kind={fld.kind!r}")
    dim = fld.grid.dim
    dims = fld.grid.dims
    if any(n < 4 for n in dims):
        raise DetectionError("need at least 4 nodes per axis")
    u = fld.values
    h = float(fld.grid.spacing)

    fwd, bwd = [], []
    for ax in range(dim):
        f = np.full(dims, np.nan)
        b = np.full(dims, np.nan)
        sl_all = [slice(None)] * dim

        sl = list(sl_all); sl[ax] = slice(0, -1)
        sr = list(sl_all); sr[ax] = slice(1, None)
        f[tuple(sl)] = (u[tuple(sr)] - u[tuple(sl)]) / h
        b[tuple(sr)] = f[tuple(sl)]
        fwd.append(f)
        bwd.append(b)

    n_comb = 1 << dim
    grads = np.empty(dims + (n_comb, dim))
    for c in range(n_comb):
        for ax in range(dim):
            grads[..., c, ax] = fwd[ax] if (c >> ax) & 1 else bwd[ax]

    ok = np.isfinite(grads).all(axis=(-1, -2))
    norms = np.linalg.norm(grads, axis=-1)
    safe = norms > 1e-12
    unit = np.where(safe[..., None], grads / np.where(safe, norms, 1.0)[..., None], 0.0)
    # min cosine over combination pairs
    cosmat = np.einsum("...id,...jd->...ij", unit, unit)
    min_cos = cosmat.min(axis=(-1, -2))
    theta = math.radians(theta_deg)
    jump = ok & safe.all(axis=-1) & (min_cos < math.cos(theta))

    excluded = ~ok | (u <= BAND_FACTOR * h) | ~np.isfinite(u)
    flags = jump & ~excluded
    return SingularMask(grid=fld.grid, flags=flags, excluded=excluded,
                        detector="gradjump",
                        params={"theta_deg": float(theta_deg),
                                "band_factor": BAND_FACTOR})


# ---------------------------------------------------------------------------
# mask comparison and coverage
# ---------------------------------------------------------------------------

def inclusion_violations(inner, outer, radius):
    """Count flags of ``inner`` farther than ``radius`` from any ``outer`` flag.

    Both masks must share a grid.  Returns (count, index array).
    """
    if inner.grid != outer.grid:
        raise DetectionError("masks live on different grids")
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

    def csv_row(self):
        c = ("" if self.ball_center is None
             else ";".join(f"{v:.9g}" for v in self.ball_center))
        return (f"{self.region},{self.r:.9g},{self.covered_fraction:.9g},"
                f"{self.n_flags},{self.n_region_nodes},{c},"
                f"{self.ball_radius:.9g}")

    @staticmethod
    def csv_header():
        return ("region,r,covered_fraction,n_flags,n_region_nodes,"
                "ball_center,ball_radius")


def coverage_density(mask, region, r):
    """Fraction of region nodes within r of a flag, and the largest grid
    ball fully inside that dilation.

    region is None (whole grid box), a shape with interior membership, or
    a boolean node mask matching the grid.  r must be at least one step.
    """
    h = float(mask.grid.spacing)
    if r < h:
        raise DetectionError("dilation radius below grid resolution")
    if region is None:
        region_mask = np.ones(mask.grid.dims, dtype=bool)
        label = "grid"
    elif isinstance(region, np.ndarray):
        region_mask = region.astype(bool).reshape(mask.grid.dims)
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


def write_density_csv(reports, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(DensityReport.csv_header() + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
