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
from scipy.sparse import coo_matrix

from .distance import GridSpec, ScalarField, _bulk_boundary_distance
from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
)
from .projection import (
    _cycle_query_many,
    _max_pairwise,
    _offset_cycle,
    _polytope_cycle,
    project,
)

BAND_FACTOR = 2.0           # unclassified band around K, in grid steps
DEFAULT_THETA_DEG = 30.0    # gradient disagreement angle threshold
FOOT_MOVE_FACTOR = 0.5      # footjump bisects edges whose feet move more
                            # than this, in grid steps
FOOT_BISECT_STEPS = 8       # halvings of each bisected edge
FOOT_JUMP_FACTOR = 25.0     # confirmed foot gap, in sample spacings
ROW_PAIRS_PER_BLOCK = 2 ** 16   # padded foot pairs resolved at once
SAMPLED_ROWS_PER_CHUNK = 16384  # kd-tree candidate rows resolved at once

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

    def dilate(self, radius):
        """Nodes within the given distance of a flag."""
        return self.distance_to_flags() <= radius

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
    distance cannot be resolved and do not count as multiplicity.
    """
    if not isinstance(grid, GridSpec):
        raise DetectionError("grid must be a GridSpec")
    h = float(grid.spacing)
    if tau_multi is None:
        tau_multi = h
    if isinstance(shape, Box):
        shape = shape.as_polytope()
    if isinstance(shape, (Ellipse, GraphHypersurface)):
        # no exact element enumeration; detect against a fine sampling
        shape = shape.boundary_sample(0.5 * h)

    pts = grid.points()
    dK = _bulk_boundary_distance(shape, pts)
    excluded = dK <= band_factor * h
    params = {"tau_multi": float(tau_multi), "band_factor": float(band_factor)}

    if isinstance(shape, Ball):
        flags = _detect_ball(shape, pts)
    elif isinstance(shape, ConvexPolytope) and shape.dim == 2:
        flags = _detect_cycle(_polytope_cycle(shape), shape.diameter(),
                              pts, dK, excluded, tau_multi)
    elif isinstance(shape, OffsetBody) and shape.dim == 2:
        flags = _detect_cycle(_offset_cycle(shape), shape.diameter(),
                              pts, dK, excluded, tau_multi,
                              shape=shape)
    elif isinstance(shape, SampledSurface):
        flags, counts = _detect_sampled(shape, pts, dK, excluded, tau_multi)
        params.update(counts)
    elif isinstance(shape, (ConvexPolytope, OffsetBody)):
        flags = _detect_pointwise(shape, pts, excluded, tau_multi)
    else:
        raise DetectionError(
            f"no multiplicity detector for {type(shape).__name__}")

    flags = flags.reshape(grid.dims) & ~excluded.reshape(grid.dims)
    return SingularMask(grid=grid, flags=flags,
                        excluded=excluded.reshape(grid.dims),
                        detector="multiproj", params=params)


def _detect_ball(ball, pts):
    # the nearest-point map on a sphere is multiple only at the center
    rel = np.linalg.norm(pts - ball.center, axis=1)
    return rel <= 1e-9 * ball.diameter()


def _detect_cycle(cycle, diam, pts, dK, excluded, tau_multi, shape=None):
    """Exact-shape detection over an element cycle, vectorized prefilter."""
    n = pts.shape[0]
    flags = np.zeros(n, dtype=bool)
    eq_tol = 1e-12 * max(1.0, diam)
    dd_tol = 1e-9 * max(1.0, diam)
    chunk = max(1, int(4_000_000 // max(len(cycle), 1)))
    for lo in range(0, n, chunk):
        sel = slice(lo, min(lo + chunk, n))
        sub = pts[sel]
        active = ~excluded[sel]
        if not active.any():
            continue
        dist, clamp = _cycle_query_many(cycle, sub)
        d_opt = dist.min(axis=1)
        cand = dist <= (d_opt + tau_multi)[:, None]
        # drop feet clamped at a junction when the neighbor element
        # continues downhill through it: those are path points of the
        # boundary distance profile, not separate nearest-point basins
        nb_dist = np.where(clamp > 0, np.roll(dist, -1, axis=1),
                           np.roll(dist, +1, axis=1))
        kept = cand & ~((clamp != 0) & (nb_dist < dist - eq_tol))
        rows = np.flatnonzero(active & (kept.sum(axis=1) >= 2))
        flags[lo + rows] = _resolve_rows(cycle, sub[rows], kept[rows],
                                         dd_tol, tau_multi)
        if shape is not None:
            # a node sitting exactly on a base vertex ties along the whole
            # vertex arc of the offset boundary
            _, arcs = shape.elements()
            for center, _, sweep in arcs:
                onc = np.linalg.norm(sub - center, axis=1) <= eq_tol
                chord = 2.0 * shape.epsilon * math.sin(
                    min(0.5 * sweep, 0.5 * math.pi))
                if chord > tau_multi:
                    flags[lo:lo + sub.shape[0]][onc & active] = True
    return flags


def _padded_rows(count):
    """Blocks of rows padded to a common width, for per-row pair work.

    Row i owns the count[i] >= 1 consecutive entries of a flat array that
    start at sum(count[:i]).  Rows are padded to their count rounded up to
    a power of two, so one wide row does not widen the rest, and handed
    out in blocks of about ROW_PAIRS_PER_BLOCK padded pairs.  Each block is
    (rows, take, valid): take indexes the flat array for every slot,
    repeating a row's last entry in its padding, and valid marks the real
    slots.
    """
    first = np.cumsum(count) - count
    width = 1 << np.ceil(np.log2(count)).astype(int)
    for w in np.unique(width):
        group = np.flatnonzero(width == w)
        step = max(1, ROW_PAIRS_PER_BLOCK // (w * w))
        for b in range(0, group.size, step):
            rows = group[b:b + step]
            cnt = count[rows][:, None]
            slot = np.arange(w)
            yield (rows, first[rows][:, None] + np.minimum(slot, cnt - 1),
                   slot < cnt)


def _resolve_rows(cycle, x, kept, dd_tol, tau_multi):
    """Whether each row's kept feet hold two representatives spread apart
    by more than tau_multi.

    Row i keeps the elements kept[i] in cycle order; their feet are
    deduplicated first come first kept at dd_tol (projection._dedupe) and
    their spread is projection._max_pairwise, over _padded_rows blocks.
    """
    row, elem = np.nonzero(kept)            # row-major: cycle order per row
    feet = np.empty((row.size, x.shape[1]))
    by_elem = np.argsort(elem, kind="stable")
    bounds = np.searchsorted(elem[by_elem], np.arange(len(cycle) + 1))
    for k, el in enumerate(cycle):
        pick = by_elem[bounds[k]:bounds[k + 1]]
        if pick.size:
            feet[pick] = el.query_feet(x[row[pick]])
    out = np.zeros(x.shape[0], dtype=bool)
    for rows, take, valid in _padded_rows(kept.sum(axis=1)):
        pad = feet[take]
        diff = pad[:, :, None, :] - pad[:, None, :, :]
        near = np.sqrt(np.vecdot(diff, diff)) <= dd_tol
        reps = valid.copy()
        for j in range(1, take.shape[1]):
            reps[:, j] &= ~(reps[:, :j] & near[:, j, :j]).any(axis=1)
        both = reps[:, :, None] & reps[:, None, :]
        spread = np.where(both, np.sqrt((diff ** 2).sum(axis=3)),
                          0.0).max(axis=(1, 2))
        out[rows] = (reps.sum(axis=1) >= 2) & (spread > tau_multi)
    return out


def _concat_ranges(starts, lengths):
    """The ranges starts[k], ..., starts[k] + lengths[k] - 1, concatenated."""
    offset = np.cumsum(lengths) - lengths
    return np.repeat(starts - offset, lengths) + np.arange(int(lengths.sum()))


def _flatten(lists):
    """Row lengths and concatenated entries of a list of index lists."""
    count = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    return count, np.fromiter(itertools.chain.from_iterable(lists),
                              dtype=np.intp, count=int(count.sum()))


def _box_diagonals(points, first):
    """Bounding-box diagonal of each row of points; rows start at first.

    vecdot takes the same dot product as np.linalg.norm of one vector.
    """
    box = np.maximum.reduceat(points, first) - np.minimum.reduceat(points,
                                                                   first)
    return np.sqrt(np.vecdot(box, box))


def _keep_rows(keep, count, per_row, per_entry):
    """Restrict a chunk of flat (CSR) rows to the rows where keep holds.

    per_row arrays hold one value per row, per_entry arrays count[i]
    consecutive values per row.  Both come back filtered, and uncopied
    when every row is kept.
    """
    if keep.all():
        return per_row, per_entry
    sel = np.repeat(keep, count)
    return [a[keep] for a in per_row], [a[sel] for a in per_entry]


def _detect_sampled(surface, pts, dK, excluded, tau_multi):
    """Sampled-surface detection using the ordered-chain invariant.

    Candidates within tau of the optimum are split into runs of
    chain-consecutive samples (consecutive samples sit within one spacing
    of each other along the surface, so an index gap of at most 3 bounds
    the Euclidean gap by the linking distance); runs are then merged by
    closest approach.  Two or more surviving clusters with well separated
    representatives mean a genuinely multiple projection.

    Rows are resolved in chunks of SAMPLED_ROWS_PER_CHUNK as flat (CSR)
    candidate arrays: the rows with one run at once, and the rows with
    several runs through one graph whose nodes are runs and whose edges
    join runs of a row that come within the linking distance.  Returns the
    flags and the counts of candidate rows (two or more candidates spread
    over more than tau_multi) and of rows resolved through that graph.
    """
    # imported on first use: scipy.sparse.csgraph adds about 1 MB of
    # resident memory to every process that would import it with the package
    from scipy.sparse.csgraph import connected_components

    tree = surface.tree()
    samples = surface.points
    flags = np.zeros(pts.shape[0], dtype=bool)
    counts = {"candidate_rows": 0, "multi_run_rows": 0}
    active = np.flatnonzero(~excluded)
    lk2 = (3.0 * surface.spacing) ** 2
    max_gap = 3
    guard = 0.5 * surface.diameter()
    n_samp = samples.shape[0]
    for lo in range(0, active.size, SAMPLED_ROWS_PER_CHUNK):
        rows = active[lo:lo + SAMPLED_ROWS_PER_CHUNK]
        # the query lists and the candidate points die inside the helpers,
        # before the run arrays below are built
        count, idx = _flatten(tree.query_ball_point(
            pts[rows], dK[rows] + tau_multi, return_sorted=True))
        (rows, count), (idx,) = _keep_rows(count >= 2, count, (rows, count),
                                           (idx,))
        if rows.size == 0:
            continue
        first = np.cumsum(count) - count
        span = _box_diagonals(samples[idx], first)
        # the spread cannot exceed the candidate bounding box
        (rows, count, span), (idx,) = _keep_rows(
            span > tau_multi, count, (rows, count, span), (idx,))
        counts["candidate_rows"] += int(rows.size)
        if rows.size == 0:
            continue
        first = np.cumsum(count) - count
        last = first + count - 1

        # runs of chain-consecutive samples, numbered across the chunk
        start = np.ones(idx.size, dtype=bool)
        start[1:] = np.diff(idx) > max_gap
        start[first] = True
        run = np.cumsum(start) - 1
        n_runs = np.add.reduceat(start, first)
        tail = np.zeros(idx.size, dtype=bool)
        if surface.closed:
            # a run through the chain's end continues its first run
            wrap = (n_runs > 1) & (idx[first] + n_samp - idx[last] <= max_gap)
            relabel = np.arange(run[-1] + 1)
            relabel[run[last[wrap]]] = run[first[wrap]]
            tail = relabel[run] != run
            run = relabel[run]
            n_runs -= wrap
        one = n_runs == 1
        flags[rows[one]] = span[one] > guard

        multi = ~one
        counts["multi_run_rows"] += int(multi.sum())
        if not multi.any():
            continue
        (rows, count, span), (idx, start, run, tail) = _keep_rows(
            multi, count, (rows, count, span), (idx, start, run, tail))
        cand = samples[idx]
        row_of = np.repeat(np.arange(rows.size), count)
        # link the runs of a row whose candidates come within the linking
        # distance.  A candidate is paired only with the later chain
        # segments of its row whose bounding box it comes that close to:
        # rounding is monotone, so a box farther than that holds no pair
        # within reach.  Pairs go in blocks of about ROW_PAIRS_PER_BLOCK.
        seg = np.cumsum(start) - 1
        seg_first = np.flatnonzero(start)
        seg_len = np.diff(np.append(seg_first, cand.shape[0]))
        seg_lo = np.minimum.reduceat(cand, seg_first)
        seg_hi = np.maximum.reduceat(cand, seg_first)
        n_later = seg[np.cumsum(count) - 1][row_of] - seg
        i = np.repeat(np.arange(cand.shape[0]), n_later)
        t = _concat_ranges(seg + 1, n_later)
        apart = np.maximum(np.maximum(seg_lo[t] - cand[i],
                                      cand[i] - seg_hi[t]), 0.0)
        reach = (apart ** 2).sum(axis=1) <= lk2
        i, t = i[reach], t[reach]
        n_pairs = seg_len[t]
        cut = np.flatnonzero(np.diff((np.cumsum(n_pairs) - n_pairs)
                                     // ROW_PAIRS_PER_BLOCK)) + 1
        heads, tails = [], []
        for a, b in zip(np.r_[0, cut], np.r_[cut, i.size]):
            ii = np.repeat(i[a:b], n_pairs[a:b])
            jj = _concat_ranges(seg_first[t[a:b]], n_pairs[a:b])
            diff = cand[ii] - cand[jj]
            near = (diff ** 2).sum(axis=1) <= lk2
            heads.append(run[ii[near]])
            tails.append(run[jj[near]])
        n_nodes = int(run.max()) + 1
        graph = coo_matrix((np.ones(sum(map(len, heads))),
                            (np.concatenate(heads), np.concatenate(tails))),
                           shape=(n_nodes, n_nodes))
        _, comp = connected_components(graph, directed=False)
        comp = comp[run]

        # each cluster's representative: its nearest candidate, the first
        # one on ties in chain order, a wrapped run's chain tail first
        cd = np.linalg.norm(cand - pts[rows[row_of]], axis=1)
        order = np.arange(cand.shape[0]) - np.where(tail, count[row_of], 0)
        order = np.lexsort((order, cd, comp))
        is_rep = np.ones(order.size, dtype=bool)
        is_rep[1:] = comp[order[1:]] != comp[order[:-1]]
        reps = order[is_rep]
        reps = reps[np.argsort(row_of[reps], kind="stable")]
        n_reps = np.bincount(row_of[reps], minlength=rows.size)
        flags[rows[n_reps == 1]] = span[n_reps == 1] > guard
        for sub, take, _ in _padded_rows(n_reps):
            pad = cand[reps[take]]
            diff = pad[:, :, None, :] - pad[:, None, :, :]
            spread = np.sqrt((diff ** 2).sum(axis=3)).max(axis=(1, 2))
            several = n_reps[sub] >= 2
            flags[rows[sub[several]]] = spread[several] > tau_multi
    return flags, counts


def _detect_pointwise(shape, pts, excluded, tau_multi):
    n = pts.shape[0]
    flags = np.zeros(n, dtype=bool)
    for i in np.nonzero(~excluded)[0]:
        res = project(shape, pts[i], tau_multi=tau_multi)
        flags[i] = not res.is_singleton
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

def detect_gradjump(fld, theta_deg=DEFAULT_THETA_DEG,
                    band_factor=BAND_FACTOR):
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

    excluded = ~ok | (u <= band_factor * h) | ~np.isfinite(u)
    flags = jump & ~excluded
    return SingularMask(grid=fld.grid, flags=flags, excluded=excluded,
                        detector="gradjump",
                        params={"theta_deg": float(theta_deg),
                                "band_factor": float(band_factor)})


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
