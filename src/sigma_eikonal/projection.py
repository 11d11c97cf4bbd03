"""Nearest-point projection onto shape boundaries, with multiplicity.

The central object is ProjectionResult: the distance to the boundary, a set
of nearest-point representatives, and a spread diagnostic.  ``tau_multi``
plays two roles: feet within tau_multi of the optimal distance are
considered near-ties, and the projection counts as a singleton exactly when
the representatives' spread stays within tau_multi.  The default is
1e-9 x diameter for exact shapes (true ties only) and 2 x sample spacing
for sampled surfaces; grid detectors pass a grid-scaled value.

Each shape family has one rows function, which resolves many points at
once, one row each: _cycle_rows (2D polytopes, boxes and offsets),
_slack_rows (3D polytopes, boxes and offsets), _ball_rows, _ellipse_rows
and _sampled_rows.  One lookup, _resolver, picks it for every caller from
a (type, dim) table, in which a Box is one more polytope: it raises on a
graph or an unknown shape, and checks the points' dimension and the tie
window.  project answers one point as row 0 of its family's rows,
resolved in full; singular.detect_multiproj runs the same function over
its grid rows, resolving only the rows that can be ties, and flags the
rows whose spread exceeds tau_multi.  So a node is flagged exactly when
its projection is not a singleton.

For exact 2D shapes the boundary is an ordered cycle of elements (polygon
edges; offset bodies add vertex arcs), held as arrays by the shape.  Its
one element kernel is geometry's: _element_blocks gives the (point,
element) distances and clamp codes block by block, with the scratch
planes its kernels and _nearest_elements work in, and _element_feet the
foot of a pair from its clamp code, in the same order of operations.
_cycle_rows and the boundary distance both read it, so a distance, a
foot and a flag of one point never differ by rounding.
Near-optimal feet are kept only when they are genuine local minima of
the boundary distance profile (_nearest_elements): a foot clamped to an
element junction whose neighbor element continues downhill through that
junction is a path point, not a separate nearest-point basin, and is
discarded.  This keeps projections onto smooth convex stretches singleton
at any tolerance while still resolving true equidistant sets.  A point on
a base vertex of an offset needs no special case: the arc's two end
points survive and their spread is the arc's chord.

Inside a 3D convex polytope the nearest set follows from the facet
slacks in closed form (_slack_feet); the same feet pushed out by epsilon
are the nearest set of an offset body, and outside a convex body the
nearest point is unique.  A ball's only tie is its centre, whose nearest
set is the whole sphere.  An ellipse is answered exactly: its feet are
the nearest root of the foot equation and, inside the evolute, the second
local minimum (geometry._ellipse_feet), kept by the same tie window as
every family.

On a sampled surface the kd-tree candidates within tau_multi of the
optimum split into runs of chain-consecutive samples, runs that come
within 3x the sample spacing are one cluster, and each cluster's nearest
candidate represents it (_sampled_clusters), so spread measures genuine
multi-projection rather than sampling density.  One cluster whose
candidates span more than half the surface diameter (for instance the
whole circle, seen from its center) is a continuum tie: its spread is the
candidates' bounding-box diagonal.

The feet of every family are resolved by one helper, _spreads: first come
first kept deduplication and the largest distance between the
representatives, over rows of flat feet; a row of two feet, the common
case, in closed form.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import geometry
from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GeometryError,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    _element_blocks,
    _element_feet,
    _ellipse_feet,
    _planes,
    _require,
    _row_blocks,
    _triangle_pairs,
)

EXACT_TAU_FACTOR = 1e-9     # default tau_multi for exact shapes, times diameter
SAMPLED_TAU_FACTOR = 2.0    # default tau_multi for sampled surfaces, times spacing
CLUSTER_LINK_FACTOR = 3.0   # sample connectivity linking scale, times spacing
CONTINUUM_TIE_FACTOR = 0.5  # one wide cluster counts as a tie beyond this
                            # fraction of the sample-set diameter


class ProjectionError(ValueError):
    """Invalid projection query."""


class ProjectionResult:
    """Distance plus the (possibly multiple) nearest boundary points.

    ``nearest`` is a (k, dim) array of nearest-set representatives;
    ``spread`` is their maximum pairwise distance (or the tie extent for
    continuum ties: a ball's diameter, the bounding-box diagonal of a
    sampled candidate set) and ``is_singleton`` is True exactly when
    spread <= tau_multi.
    """

    __slots__ = ("distance", "nearest", "is_singleton", "spread", "tau_multi")

    def __init__(self, distance, nearest, tau_multi, spread):
        self.distance = float(distance)
        self.nearest = np.atleast_2d(np.asarray(nearest, dtype=float))
        self.spread = float(spread)
        self.tau_multi = float(tau_multi)
        self.is_singleton = self.spread <= tau_multi

    def __repr__(self):
        return (f"ProjectionResult(distance={self.distance:.6g}, "
                f"k={self.nearest.shape[0]}, spread={self.spread:.3g}, "
                f"singleton={self.is_singleton})")


def default_tau_multi(shape):
    if isinstance(shape, SampledSurface):
        return SAMPLED_TAU_FACTOR * shape.spacing
    return EXACT_TAU_FACTOR * shape.diameter()


# ---------------------------------------------------------------------------
# rows of feet: representatives and spread
# ---------------------------------------------------------------------------

def _padded_rows(count):
    """Blocks of rows padded to a common width, for per-row pair work.

    Row i owns the count[i] >= 1 consecutive entries of a flat array that
    start at sum(count[:i]).  Rows of one entry hold no pair and are left
    out.  The others are padded to their count rounded up to a power of
    two, so one wide row does not widen the rest, and handed out in
    geometry._row_blocks of padded pairs.  Each block is (rows, take, cnt):
    take indexes the flat array for every slot, repeating a row's last
    entry in its padding, and the real slots of row i are the first
    cnt[i, 0].
    """
    first = np.cumsum(count) - count
    width = 1 << np.ceil(np.log2(count)).astype(int)
    for w in np.unique(width[count > 1]):
        group = np.flatnonzero(width == w)
        for block in _row_blocks(group.size, w * w):
            rows = group[block]
            cnt = count[rows][:, None]
            yield (rows, first[rows][:, None] + np.minimum(np.arange(w),
                                                           cnt - 1), cnt)


def _spreads(points, count, tol=None):
    """Representatives and spread of each row of flat points.

    Row i owns count[i] >= 1 consecutive points (see _padded_rows).  With
    tol, a point within tol of an earlier representative of its row is
    dropped, first come first kept; without it every point represents.  A
    row's spread is the largest distance between two of its
    representatives, 0 for one.  Both read the distances of point pairs,
    the square root of the summed squared coordinate differences: rows of
    two points their one pair (_pair_spreads), wider rows the matrix of
    all pairs (_matrix_spreads).  Returns (keep, spread), keep the
    boolean mask of the representatives among the points.
    """
    keep = np.ones(points.shape[0], dtype=bool)
    spread = np.zeros(count.size)
    for rows, take, cnt in _padded_rows(count):
        width = take.shape[1]
        rule = _pair_spreads if width == 2 else _matrix_spreads
        reps, spread[rows] = rule(points[take], cnt, tol)
        if reps is not None:
            valid = np.arange(width) < cnt
            keep[take[valid]] = reps[valid]
    return keep, spread


def _matrix_spreads(pad, cnt, tol):
    """One _padded_rows block of _spreads from its (r, w, w) matrix of pair
    distances: (reps, spread), reps the (r, w) representative slots, or
    None when no point of the block is dropped."""
    r, w = pad.shape[:2]
    diff = pad[:, :, None, :] - pad[:, None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=3))
    reps = None
    near = None if tol is None else dist <= tol
    # a near pair off the diagonal (padding is one) needs the first-come
    # pass, which never keeps a padding slot
    if near is not None and np.count_nonzero(near) > r * w:
        # slot j is kept when valid and near no kept slot before it: a
        # fixpoint, unique by induction on j, so the sweep reaches the
        # column-by-column loop's answer once it stops changing
        valid = np.arange(w) < cnt
        near &= np.tri(w, k=-1, dtype=bool)
        reps = valid
        while True:
            new = valid & ~(near & reps[:, None, :]).any(axis=2)
            if np.array_equal(new, reps):
                break
            reps = new
        dist = np.where(reps[:, :, None] & reps[:, None, :], dist, 0.0)
    # padding repeats a row's last point, which adds no larger distance
    return reps, dist.max(axis=(1, 2))


def _pair_spreads(pad, cnt, tol):
    """_matrix_spreads for a block of rows of two points, in closed form:
    the spread is the pair's distance, 0 with the second point dropped
    where that is within tol.  Bit for bit the matrix form, whose two
    off-diagonal entries are this same square root."""
    diff = pad[:, 1] - pad[:, 0]
    dist = np.sqrt((diff ** 2).sum(axis=1))
    near = None if tol is None else dist <= tol
    if near is None or not near.any():
        return None, dist
    return (np.stack((np.ones_like(near), ~near), axis=1),
            np.where(near, 0.0, dist))


def _box_diagonals(points, first):
    """Bounding-box diagonal of each row of points; rows start at first.

    vecdot takes the same dot product as np.linalg.norm of one vector.
    """
    box = np.maximum.reduceat(points, first) - np.minimum.reduceat(points,
                                                                   first)
    return np.sqrt(np.vecdot(box, box))


def _keep_rows(keep, count, per_row, per_entry):
    """Restrict flat (CSR) rows to the rows where keep holds.

    per_row arrays hold one value per row, per_entry arrays count[i]
    consecutive values per row.  Both come back filtered, and uncopied
    when every row is kept.
    """
    if keep.all():
        return per_row, per_entry
    sel = np.repeat(keep, count)
    return [a[keep] for a in per_row], [a[sel] for a in per_entry]


def _concat_ranges(starts, lengths):
    """The ranges starts[k], ..., starts[k] + lengths[k] - 1, concatenated."""
    offset = np.cumsum(lengths) - lengths
    return np.repeat(starts - offset, lengths) + np.arange(int(lengths.sum()))


# ---------------------------------------------------------------------------
# element cycles for exact 2D shapes
# ---------------------------------------------------------------------------

def _nearest_elements(dist, clamp, tau_multi, eq_tol, work):
    """Minimum and kept elements of each point of element-major (element,
    point) distance and clamp matrices in cycle order: one row per
    element, reduced over axis 0.

    A point keeps the elements within tau_multi of its minimum, less the
    feet clamped at a junction past which the neighbour element keeps
    falling by more than eq_tol: those are path points of the boundary
    distance profile, not separate nearest-point basins.  The neighbour is
    the next element in the cycle where the clamp code is +1, else the
    previous one.  The work runs in two float and three bool planes of
    the block's scratch work (geometry._element_blocks), and the kept
    matrix returned, (element, point) like dist, is one of them: valid
    until the next block.
    """
    nb, lower = _planes(work[0], dist.shape, 2)
    back, jump, kept = _planes(work[1], dist.shape, 3)
    d_opt = dist.min(axis=0)
    np.less_equal(dist, d_opt + tau_multi, out=kept)
    nb[:-1] = dist[1:]
    nb[-1] = dist[0]
    np.less_equal(clamp, 0, out=back)
    np.copyto(nb[1:], dist[:-1], where=back[1:])
    np.copyto(nb[0], dist[-1], where=back[0])
    np.subtract(dist, eq_tol, out=lower)
    np.less(nb, lower, out=jump)
    jump &= np.not_equal(clamp, 0, out=back)
    kept &= np.logical_not(jump, out=jump)
    return d_opt, kept


def _cycle_rows(shape, pts, tau_multi, full, d_opt=None):
    """Rows of points on a 2D polytope or offset, from its element cycle.

    Each block of geometry's element-major (element, point) distance
    matrix gives its points' distances, the minima over axis 0 (so a
    d_opt passed in is not read), and, through _nearest_elements, the
    elements each point keeps.  With full every row is resolved; without
    it only the rows that keep two or more elements, the only ones that
    can be ties.  Their feet come from one geometry._element_feet call on
    the kept clamp codes, in cycle order, and _spreads dedupes them, first
    come first kept, and measures their spread.  Each row is the
    arithmetic of its point alone.
    """
    diam = shape.diameter()
    eq_tol = 1e-12 * max(1.0, diam)
    n = pts.shape[0]
    d_opt = np.empty(n)
    none = np.empty(0, dtype=np.intp)
    parts = [(none, none, none, np.empty(0, dtype=np.int8))]
    for sel, dist, clamp, work in _element_blocks(shape, pts):
        d_opt[sel], kept = _nearest_elements(dist, clamp, tau_multi, eq_tol,
                                             work)
        n_kept = kept.sum(axis=0)
        cand = np.flatnonzero(n_kept > (0 if full else 1))
        # point-major over the transpose: cycle order within each row
        row, k = np.nonzero(kept[:, cand].T)
        parts.append((sel.start + cand, n_kept[cand], k, clamp[k, cand[row]]))
    # the loop's views keep its scratch alive: free it before the feet
    dist = clamp = work = kept = None
    rows, count, elem, code = map(np.concatenate, zip(*parts))
    feet = _element_feet(shape, pts[np.repeat(rows, count)], elem, code)
    keep, spread = _spreads(feet, count, 1e-9 * max(1.0, diam))
    row_spread = np.zeros(n)
    row_spread[rows] = spread
    if not full:
        return d_opt, None, None, row_spread, {}
    row_count = np.zeros(n, dtype=np.intp)
    row_count[rows] = np.add.reduceat(keep, np.cumsum(count) - count,
                                      dtype=np.intp)
    return d_opt, row_count, feet[keep], row_spread, {}


# ---------------------------------------------------------------------------
# exact shapes
# ---------------------------------------------------------------------------

def _slack_feet(poly, pts, tau_multi, epsilon=0.0):
    """Nearest feet of points inside a convex polytope, from facet slacks.

    Inside K = {n_k . x <= c_k}, with slacks s_k = c_k - n_k . x and
    d = min s_k, keep each facet with s_k <= d + tau_multi whose plane foot
    x + s_k n_k lies in K (within 1e-12 x max(1, diameter)); on the offset
    by epsilon its foot is x + (s_k + epsilon) n_k.  A point outside K has
    one nearest point, which slacks do not give, and keeps no foot here.
    Returns (row, feet), row-major over pts.  Each (point, facet) dot is
    its own vecdot, so a row's feet do not depend on the other rows.
    """
    n, c = poly.normals, poly.offsets
    tol = 1e-12 * max(1.0, poly.diameter())
    s = c - np.vecdot(pts[:, None, :], n)
    d = s.min(axis=1)
    row, k = np.nonzero((s <= (d + tau_multi)[:, None])
                        & (d >= -tol)[:, None])
    foot = pts[row] + s[row, k, None] * n[k]
    ok = np.all(np.vecdot(foot[:, None, :], n) <= c + tol, axis=1)
    row, k = row[ok], k[ok]
    return row, pts[row] + (s[row, k] + epsilon)[:, None] * n[k]


def _slack_rows(shape, pts, tau_multi, full, d_opt=None):
    """Rows of points on a 3D polytope or offset.

    Inside the base the nearest set is its facet slack feet pushed out by
    epsilon (_slack_feet), one per active facet at a base edge or vertex,
    and their spread is the row's.  Outside it the nearest point is
    unique: the foot of the first nearest base triangle, through the
    pruned pairs of geometry's 3D distance kernel (_triangle_pairs),
    pushed out by epsilon away from the point.  The distance is that
    triangle's plus epsilon inside and |d - epsilon| outside; it is
    computed only with full or without d_opt, and the outside feet only
    with full.
    """
    base, eps = ((shape.base, shape.epsilon) if isinstance(shape, OffsetBody)
                 else (shape, 0.0))
    n = pts.shape[0]
    parts = [(np.empty(0, dtype=np.intp), np.empty((0, 3)))]
    for block in _row_blocks(n, base.normals.shape[0]):
        row, feet = _slack_feet(base, pts[block], tau_multi, eps)
        parts.append((block.start + row, feet))
    row, feet = map(np.concatenate, zip(*parts))
    count = np.bincount(row, minlength=n)
    inside = count > 0
    spread = np.zeros(n)
    spread[inside] = _spreads(feet, count[inside])[1]
    if full or d_opt is None:
        d_base, foot = np.empty(n), np.empty((n, 3))
        for rows, _, dist, tri_feet in _triangle_pairs(base.triangles(), pts):
            # kept pairs come in (point, triangle) order: the first pair at
            # a row's minimum is its first nearest triangle
            order = np.lexsort((dist, rows))
            first = np.ones(order.size, dtype=bool)
            first[1:] = rows[order[1:]] != rows[order[:-1]]
            first = order[first]
            d_base[rows[first]] = dist[first]
            foot[rows[first]] = tri_feet[first]
        d_opt = np.where(inside, d_base + eps, np.abs(d_base - eps))
    if not full:
        return d_opt, None, None, spread, {}
    out = np.flatnonzero(~inside)
    foot = foot[out]
    if eps:
        u = pts[out] - foot
        u /= np.sqrt(np.vecdot(u, u))[:, None]
        foot = foot + eps * u
    count[out] = 1
    order = np.argsort(np.concatenate([row, out]), kind="stable")
    return d_opt, count, np.concatenate([feet, foot])[order], spread, {}


def _ball_rows(ball, pts, tau_multi, full, d_opt=None):
    """Rows of points on a ball, in the arithmetic of
    Ball.boundary_distance (the axis-1 norm).

    A point within 1e-9 x the diameter of the centre has the whole sphere
    as its nearest set: the axis points +-e_k represent it and the
    diameter is its spread.  Every other point has one foot, on its ray
    from the centre.
    """
    rel = pts - ball.center
    r = np.linalg.norm(rel, axis=1)
    if d_opt is None:
        d_opt = np.abs(r - ball.radius)
    centre = r <= 1e-9 * ball.diameter()
    spread = np.where(centre, 2.0 * ball.radius, 0.0)
    if not full:
        return d_opt, None, None, spread, {}
    count = np.ones(pts.shape[0], dtype=np.intp)
    feet = ball.center + ball.radius * rel / np.where(centre, 1.0, r)[:, None]
    if centre.any():
        count[centre] = 2 * ball.dim
        feet = np.repeat(feet, count, axis=0)
        axes = np.kron(np.eye(ball.dim), [[1.0], [-1.0]])
        feet[np.repeat(centre, count)] = np.tile(
            ball.center + ball.radius * axes, (np.count_nonzero(centre), 1))
    return d_opt, count, feet, spread, {}


def _ellipse_rows(ellipse, pts, tau_multi, full, d_opt=None):
    """Rows of points on an ellipse.

    A row keeps its nearest foot and, when it lies within tau_multi of the
    distance, its second local minimum (geometry._ellipse_feet); the spread
    is the distance between the two.  The distance, equal to
    ellipse.boundary_distance, comes from the nearest foot, so a d_opt
    passed in is not read.
    """
    near, other = _ellipse_feet(ellipse, pts, second=True)
    d_opt = np.linalg.norm(pts - near, axis=1)
    rows = np.flatnonzero(np.linalg.norm(pts - other, axis=1)
                          <= d_opt + tau_multi)
    spread = np.zeros(pts.shape[0])
    spread[rows] = np.linalg.norm(near[rows] - other[rows], axis=1)
    if not full:
        return d_opt, None, None, spread, {}
    count = np.ones(pts.shape[0], dtype=np.intp)
    count[rows] = 2
    return (d_opt, count, np.insert(near, rows + 1, other[rows], axis=0),
            spread, {})


# ---------------------------------------------------------------------------
# sampled surfaces
# ---------------------------------------------------------------------------

def _flatten(lists):
    """Row lengths and concatenated entries of a list of index lists."""
    count = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    return count, np.fromiter(itertools.chain.from_iterable(lists),
                              dtype=np.intp, count=int(count.sum()))


def _sampled_rows(surface, pts, tau_multi, full, d_opt=None):
    """Rows of points on a sampled surface, fetched in blocks of about
    geometry.PAIRS_PER_BLOCK candidates.

    A row's candidates are the samples within tau_multi of its distance
    (d_opt, else the kd-tree's nearest distance), as flat (CSR) rows of
    ascending sample indices.  The first block is one row; each next one
    holds the rows that the mean candidate count of the rows fetched so
    far puts at the budget, and at most twice the rows of the block before
    it.  Each block is resolved before the next fetch (_sampled_block), so
    no row depends on the blocking.  With full every row is resolved.
    Without it a row of one candidate, or whose candidate bounding box is
    no wider than tau_multi (the spread cannot exceed it), is not;
    _sampled_clusters resolves the others.  stats counts the candidates
    fetched (candidate_pairs), the fetches (fetch_blocks), the rows
    resolved (candidate_rows) and, among them, the rows split into two or
    more candidate runs (multi_run_rows).
    """
    n = pts.shape[0]
    if d_opt is None:
        d_opt = surface.tree().query(pts)[0]
    count = np.zeros(n, dtype=np.intp)
    spread = np.zeros(n)
    feet = [np.empty((0, surface.dim))]
    stats = dict.fromkeys(("candidate_rows", "multi_run_rows",
                           "candidate_pairs", "fetch_blocks"), 0)
    lo, step = 0, 1
    while lo < n:
        hi = min(lo + step, n)
        rows, row_spread, row_count, row_feet = _sampled_block(
            surface, pts[lo:hi], d_opt[lo:hi] + tau_multi, tau_multi, full,
            stats)
        spread[lo + rows] = row_spread
        if full:
            count[lo + rows] = row_count
            feet.append(row_feet)
        lo = hi
        step = min(2 * step, max(1, geometry.PAIRS_PER_BLOCK * lo
                                 // max(1, stats["candidate_pairs"])))
    if not full:
        return d_opt, None, None, spread, stats
    return d_opt, count, np.concatenate(feet), spread, stats


def _sampled_block(surface, x, radius, tau_multi, full, stats):
    """One fetch of _sampled_rows: (rows, spread, count, feet), rows the
    rows of x resolved, as indices into x, and count and feet None without
    full.  The candidate lists, their flat indices and spans live only
    here; stats is updated in place."""
    n_cand, idx = _flatten(surface.tree().query_ball_point(
        x, radius, return_sorted=True))
    stats["candidate_pairs"] += int(idx.size)
    stats["fetch_blocks"] += 1
    rows = np.arange(x.shape[0])
    (rows, n_cand), (idx,) = _keep_rows(n_cand > (0 if full else 1),
                                        n_cand, (rows, n_cand), (idx,))
    if rows.size:
        span = _box_diagonals(surface.points[idx], np.cumsum(n_cand) - n_cand)
        if not full:
            (rows, n_cand, span), (idx,) = _keep_rows(
                span > tau_multi, n_cand, (rows, n_cand, span), (idx,))
    stats["candidate_rows"] += int(rows.size)
    if rows.size == 0:
        return rows, 0.0, 0, np.empty((0, surface.dim))
    spread, multi, rep = _sampled_clusters(surface, x[rows], n_cand, idx,
                                           span, full)
    stats["multi_run_rows"] += int(multi.sum())
    if not full:
        return rows, spread, None, None
    count = np.bincount(np.repeat(np.arange(rows.size), n_cand)[rep],
                        minlength=rows.size)
    return rows, spread, count, surface.points[idx[rep]]


def _components(n_nodes, heads, tails):
    """Connected-component label of each of n_nodes graph nodes, the
    undirected edges joining heads[k] and tails[k]: the smallest node of
    its component.

    Min-label propagation with pointer jumping: every node starts as its
    own label, each edge hooks the larger of its ends' labels onto the
    smaller, and labels are then followed to their roots, until no edge
    joins two labels.  A label only falls and never leaves its node's
    component, so the fixpoint gives each component its smallest node.
    """
    label = np.arange(n_nodes)
    while True:
        a, b = label[heads], label[tails]
        if np.array_equal(a, b):
            return label
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def _sampled_clusters(surface, x, count, idx, span, full):
    """Nearest-set spread and representatives of rows of sampled candidates.

    Row i of x holds count[i] >= 1 candidate samples, ascending sample
    indices idx in flat (CSR) rows, whose bounding box has diagonal
    span[i].  The candidates split into runs of chain-consecutive samples
    (consecutive samples sit within one spacing of each other along the
    surface, so an index gap of at most CLUSTER_LINK_FACTOR bounds the
    Euclidean gap by the linking distance CLUSTER_LINK_FACTOR x spacing),
    and a run through the end of a closed chain continues its first run.
    Runs of a row that come within the linking distance are one cluster,
    labelled by its smallest run (_components over the runs of all rows),
    so a row's clusters come in the order of their first runs; each
    cluster's representative is its nearest candidate, the first one on
    ties in chain order, a wrapped run's chain tail first.

    A row of two or more clusters has the largest distance between its
    representatives as spread.  A row of one cluster has spread 0, or its
    span when that exceeds CONTINUUM_TIE_FACTOR x the surface diameter (a
    continuum tie).  A row of one run is one cluster, so its spread needs
    no representative, and without full, the grid detector's case, whose
    rows are mostly of one run, the candidate distances that would pick
    it are skipped.  Returns (spread, multi, rep): multi marks the rows of
    two or more runs, and rep indexes idx at the representatives of those
    rows, or of every row with full, row by row.
    """
    n_samp = surface.points.shape[0]
    lk2 = (CLUSTER_LINK_FACTOR * surface.spacing) ** 2
    max_gap = int(CLUSTER_LINK_FACTOR)
    first = np.cumsum(count) - count
    last = first + count - 1
    spread = np.where(span > CONTINUUM_TIE_FACTOR * surface.diameter(),
                      span, 0.0)

    # runs of chain-consecutive samples, numbered across the rows
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
    multi = n_runs > 1
    resolve = multi | full
    if not resolve.any():
        return spread, multi, np.empty(0, dtype=np.intp)
    pos = np.arange(idx.size)
    (rows, count), (pos, start, run, tail) = _keep_rows(
        resolve, count, (np.arange(count.size), count),
        (pos, start, run, tail))
    cand = surface.points[idx[pos]]
    row_of = np.repeat(np.arange(rows.size), count)
    # link the runs of a row whose candidates come within the linking
    # distance.  A candidate is paired only with the later chain
    # segments of its row whose bounding box it comes that close to:
    # rounding is monotone, so a box farther than that holds no pair
    # within reach.  Pairs go in geometry._row_blocks.
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
    heads, tails = [], []
    for b in _row_blocks(i.size, n_pairs):
        ii = np.repeat(i[b], n_pairs[b])
        jj = _concat_ranges(seg_first[t[b]], n_pairs[b])
        diff = cand[ii] - cand[jj]
        near = (diff ** 2).sum(axis=1) <= lk2
        heads.append(run[ii[near]])
        tails.append(run[jj[near]])
    comp = _components(int(run.max()) + 1, np.concatenate(heads),
                       np.concatenate(tails))[run]

    # each cluster's representative: its nearest candidate, the first
    # one on ties in chain order, a wrapped run's chain tail first
    cd = np.linalg.norm(cand - x[rows[row_of]], axis=1)
    order = np.arange(cand.shape[0]) - np.where(tail, count[row_of], 0)
    order = np.lexsort((order, cd, comp))
    is_rep = np.ones(order.size, dtype=bool)
    is_rep[1:] = comp[order[1:]] != comp[order[:-1]]
    reps = order[is_rep]
    reps = reps[np.argsort(row_of[reps], kind="stable")]
    n_reps = np.bincount(row_of[reps], minlength=rows.size)
    several = n_reps >= 2
    spread[rows[several]] = _spreads(cand[reps], n_reps)[1][several]
    return spread, multi, pos[reps]



# ---------------------------------------------------------------------------
# the one lookup
# ---------------------------------------------------------------------------

_ROWS = {
    (ConvexPolytope, 2): _cycle_rows, (OffsetBody, 2): _cycle_rows,
    (Box, 2): _cycle_rows,
    (ConvexPolytope, 3): _slack_rows, (OffsetBody, 3): _slack_rows,
    (Box, 3): _slack_rows,
    (Ball, 2): _ball_rows, (Ball, 3): _ball_rows,
    (Ellipse, 2): _ellipse_rows,
    (SampledSurface, 2): _sampled_rows, (SampledSurface, 3): _sampled_rows,
}


def _resolver(shape, pts, tau_multi=None, error=ProjectionError):
    """(rows, tau_multi): the rows function of shape's family and the tie
    window, for the points pts.

    A Box is a polytope with keys of its own.  A graph has no exact
    boundary distance and raises GeometryError: resolve its
    boundary_sample instead.  Another unknown shape, pts other than rows
    of shape.dim finite coordinates, and a tie window that is not a finite
    number >= 0 raise error; tau_multi None is default_tau_multi(shape).

    A rows function is called as rows(shape, pts, tau_multi, full, d_opt)
    and returns (d_opt, count, feet, spread, stats) for the n rows of pts:
    the boundary distances, row i's count[i] consecutive nearest-set
    representatives in feet, the spread of each row and a dict of work
    counts (empty but for a sampled surface).  With full every row is
    resolved, as project needs.  Without it, the detector's case, only the
    rows that can be ties are: count and feet are None, and a row left out
    has spread 0, so spread > tau_multi is the same in both modes.  d_opt,
    when the caller has the rows' distances (the detector's node memo),
    spares a family the distance computation that its resolution does not
    make anyway.
    """
    rows = _ROWS.get((type(shape), getattr(shape, "dim", None)))
    if rows is None:
        if isinstance(shape, GraphHypersurface):
            raise GeometryError(
                "graphs have no exact boundary distance; resolve "
                "shape.boundary_sample(spacing) instead")
        raise error(f"unsupported shape {type(shape).__name__}")
    if pts.ndim != 2 or pts.shape[1] != shape.dim:
        raise error(f"query points must be {shape.dim}D")
    _require(pts, error, "query points must be finite")
    if tau_multi is None:
        tau_multi = default_tau_multi(shape)
    if not (np.isfinite(tau_multi) and tau_multi >= 0):
        raise error(f"tau_multi must be finite and nonnegative, "
                    f"got {tau_multi}")
    return rows, tau_multi


def project(shape, x, tau_multi=None):
    """Project x onto the boundary of any supported shape: row 0 of its
    family's rows function (_resolver), resolved in full."""
    x = np.asarray(x, dtype=float)[None]
    rows, tau_multi = _resolver(shape, x, tau_multi)
    d_opt, _, feet, spread, _ = rows(shape, x, tau_multi, True)
    return ProjectionResult(d_opt[0], feet, tau_multi, spread[0])
