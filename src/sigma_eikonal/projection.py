"""Nearest-point projection onto shape boundaries, with multiplicity.

The central object is ProjectionResult: the distance to the boundary, a set
of nearest-point representatives, and a spread diagnostic.  ``tau_multi``
plays two roles: feet within tau_multi of the optimal distance are
considered near-ties, and the projection counts as a singleton exactly when
the representatives' spread stays within tau_multi.  The default is
1e-9 x diameter for exact shapes (true ties only) and 2 x sample spacing
for sampled surfaces; grid detectors pass a grid-scaled value.

project checks the shape kind, the point's dimension and that default
once, then hands the point to the resolver of its family: _cycle_project
(2D polytopes and offsets), _slack_project (3D ones, and a Box as its
polytope), _ball_project, _ellipse_project or _sampled_project.  The rules
that singular.detect_multiproj shares with project are written here once:
_convex_base (the polytope and push of a convex shape), _ball_centre (a
ball's only tie) and the row resolvers below.

Inside a 3D convex polytope the nearest set follows from the facet
slacks in closed form (_slack_feet); the same feet pushed out by epsilon
are the nearest set of an offset body, and outside a convex body the
nearest point is unique.

For exact 2D shapes the boundary is an ordered cycle of elements (polygon
edges; offset bodies add vertex arcs), held as arrays by the shape and
queried all at once by geometry._element_query, the one element kernel
that the grid detector and the bulk feet also call.  _cycle_rows resolves
many points at once, one row each, and project answers one point as its
row 0, so every 2D point has one nearest-set rule.  Near-optimal feet are
kept only when they are genuine local minima of the boundary distance
profile (_nearest_elements, shared with the detector): a foot clamped to
an element junction whose neighbor element continues downhill through
that junction is a path point, not a separate nearest-point basin, and is
discarded.  This keeps projections onto smooth convex stretches singleton
at any tolerance while still resolving true equidistant sets.  A point on
a base vertex of an offset needs no special case: the arc's two end
points survive and their spread is the arc's chord.

A sampled surface answers one point as one row of _sampled_rows, the
resolver that singular.detect_multiproj runs over its grid rows: the
kd-tree candidates within tau_multi of the optimum split into runs of
chain-consecutive samples, runs that come within 3x the sample spacing
are one cluster, and each cluster's nearest candidate represents it, so
spread measures genuine multi-projection rather than sampling density.
One cluster whose candidates span more than half the surface diameter
(for instance the whole circle, seen from its center) is a continuum tie:
its spread is the candidates' bounding-box diagonal.

The feet of every family are resolved by one helper, _spreads: first come
first kept deduplication and the largest distance between the
representatives, over rows of flat feet.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    _closest_point_triangles,
    _element_distance_blocks,
    _element_query,
)

EXACT_TAU_FACTOR = 1e-9     # default tau_multi for exact shapes, times diameter
SAMPLED_TAU_FACTOR = 2.0    # default tau_multi for sampled surfaces, times spacing
CLUSTER_LINK_FACTOR = 3.0   # sample connectivity linking scale, times spacing
CONTINUUM_TIE_FACTOR = 0.5  # one wide cluster counts as a tie beyond this
                            # fraction of the sample-set diameter
ROW_PAIRS_PER_BLOCK = 2 ** 16   # padded foot pairs resolved at once


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

    def __init__(self, distance, nearest, tau_multi, spread=None):
        nearest = np.atleast_2d(np.asarray(nearest, dtype=float))
        if spread is None:
            k = nearest.shape[0]
            spread = _spreads(nearest, np.array([k]))[1][0] if k > 1 else 0.0
        self.distance = float(distance)
        self.nearest = nearest
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
    two, so one wide row does not widen the rest, and handed out in blocks
    of about ROW_PAIRS_PER_BLOCK padded pairs.  Each block is (rows, take,
    cnt): take indexes the flat array for every slot, repeating a row's
    last entry in its padding, and the real slots of row i are the first
    cnt[i, 0].
    """
    if count.size == 1:         # one row needs no padding
        if count[0] > 1:
            yield slice(None), np.arange(count[0])[None], count[:, None]
        return
    first = np.cumsum(count) - count
    width = 1 << np.ceil(np.log2(count)).astype(int)
    for w in np.unique(width[count > 1]):
        group = np.flatnonzero(width == w)
        step = max(1, ROW_PAIRS_PER_BLOCK // (w * w))
        for b in range(0, group.size, step):
            rows = group[b:b + step]
            cnt = count[rows][:, None]
            yield (rows, first[rows][:, None] + np.minimum(np.arange(w),
                                                           cnt - 1), cnt)


def _spreads(points, count, tol=None):
    """Representatives and spread of each row of flat points.

    Row i owns count[i] >= 1 consecutive points (see _padded_rows).  With
    tol, a point within tol of an earlier representative of its row is
    dropped, first come first kept; without it every point represents.  A
    row's spread is the largest distance between two of its
    representatives, 0 for one.  Both read one matrix of pair distances,
    the square root of the summed squared coordinate differences.  Returns
    (keep, spread), keep selecting the representatives among the points: a
    boolean mask, or a full slice when every point represents.
    """
    keep = slice(None)
    spread = np.zeros(count.size)
    for rows, take, cnt in _padded_rows(count):
        pad = points[take]
        diff = pad[:, :, None, :] - pad[:, None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=3))
        near = None if tol is None else dist <= tol
        # a near pair off the diagonal (padding is one) needs the
        # first-come pass, which never keeps a padding slot
        if near is not None and np.count_nonzero(near) > take.size:
            valid = np.arange(take.shape[1]) < cnt
            reps = valid.copy()
            for j in range(1, take.shape[1]):
                reps[:, j] &= ~(reps[:, :j] & near[:, j, :j]).any(axis=1)
            if isinstance(keep, slice):
                keep = np.ones(points.shape[0], dtype=bool)
            keep[take[valid]] = reps[valid]
            dist = np.where(reps[:, :, None] & reps[:, None, :], dist, 0.0)
        # padding repeats a row's last point, which adds no larger distance
        spread[rows] = dist.max(axis=(1, 2))
    return keep, spread


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

def _nearest_elements(dist, clamp, tau_multi, eq_tol):
    """Row minimum and kept elements of (row, element) distance and clamp
    matrices in cycle order.

    A row keeps the elements within tau_multi of its minimum, less the
    feet clamped at a junction past which the neighbour element keeps
    falling by more than eq_tol: those are path points of the boundary
    distance profile, not separate nearest-point basins.
    """
    d_opt = dist.min(axis=1)
    cand = dist <= (d_opt + tau_multi)[:, None]
    ring = np.concatenate((dist[:, -1:], dist, dist[:, :1]), axis=1)
    nb_dist = np.where(clamp > 0, ring[:, 2:], ring[:, :-2])
    return d_opt, cand & ~((clamp != 0) & (nb_dist < dist - eq_tol))


def _cycle_rows(shape, pts, tau_multi):
    """Projection rows of points on a 2D polytope or offset.

    Every (point, element) pair is one geometry._element_query row, in
    blocks of about ROW_PAIRS_PER_BLOCK pairs; _nearest_elements keeps each
    point's elements and _spreads dedupes their feet, first come first
    kept, and measures their spread.  Each row is the arithmetic of its
    point alone.  Returns (d_opt, count, feet, spread): point i owns the
    count[i] consecutive representatives of feet, in cycle order.
    """
    diam = shape.diameter()
    n_el = shape._cycle.size
    eq_tol = 1e-12 * max(1.0, diam)
    block = max(1, ROW_PAIRS_PER_BLOCK // n_el)
    d_opt = np.empty(pts.shape[0])
    count = np.empty(pts.shape[0], dtype=np.intp)
    feet = []
    for lo in range(0, pts.shape[0], block):
        p = pts[lo:lo + block]
        m = p.shape[0]
        dist, foot, clamp = _element_query(shape, np.repeat(p, n_el, axis=0),
                                           np.tile(np.arange(n_el), m))
        d, kept = _nearest_elements(dist.reshape(m, n_el),
                                    clamp.reshape(m, n_el), tau_multi, eq_tol)
        d_opt[lo:lo + m] = d
        count[lo:lo + m] = kept.sum(axis=1)
        feet.append(foot[kept.reshape(-1)])
    feet = np.concatenate(feet)
    keep, spread = _spreads(feet, count, 1e-9 * max(1.0, diam))
    if not isinstance(keep, slice):
        count = np.add.reduceat(keep, np.cumsum(count) - count,
                                dtype=np.intp)
        feet = feet[keep]
    return d_opt, count, feet, spread


def _cycle_project(shape, x, tau_multi):
    """Projection of x on a 2D polytope or offset: x is one row of
    _cycle_rows."""
    d_opt, _, feet, spread = _cycle_rows(shape, x[None], tau_multi)
    return ProjectionResult(d_opt[0], feet, tau_multi, spread[0])


def _cycle_nearest_feet(shape, pts):
    """One nearest boundary foot per point of a 2D polytope or offset.

    Intended for bulk gradient evaluation away from ties, where any single
    global minimizer determines the gradient.  The nearest element is the
    row argmin of geometry's element distance matrix.
    """
    k_best = np.empty(pts.shape[0], dtype=np.intp)
    for rows, dist, _ in _element_distance_blocks(shape, pts):
        k_best[rows] = dist.argmin(axis=1)
    return _element_query(shape, pts, k_best)[1]


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


def _convex_base(shape):
    """(base, epsilon) of a convex polytope (epsilon 0) or an offset body:
    the polytope whose facet slacks decide the nearest set, and the push."""
    if isinstance(shape, OffsetBody):
        return shape.base, shape.epsilon
    return shape, 0.0


def _slack_project(shape, x, tau_multi):
    """Projection of x on a 3D polytope or offset.

    The distance comes from the base's hull triangles.  Inside the base
    the nearest set is its facet slack feet pushed out by epsilon
    (_slack_feet), one per active facet at a base edge or vertex; outside
    it the nearest point is unique, the nearest base triangle foot pushed
    out by epsilon away from x.
    """
    base, eps = _convex_base(shape)
    feet = _closest_point_triangles(x[None], *base.triangles())[0]
    dist = np.linalg.norm(feet - x, axis=1)
    k = np.argmin(dist)
    d_base, foot = dist[k], feet[k]
    _, pushed = _slack_feet(base, x[None], tau_multi, eps)
    if pushed.shape[0]:
        return ProjectionResult(d_base + eps, pushed, tau_multi)
    if eps:
        u = x - foot
        u /= np.linalg.norm(u)
        foot = foot + eps * u
    return ProjectionResult(abs(d_base - eps), foot, tau_multi)


def _ball_centre(ball, pts):
    """The points at a ball's centre, within 1e-9 x its diameter: the only
    points whose nearest set on a sphere is not one point."""
    return np.linalg.norm(pts - ball.center, axis=1) <= 1e-9 * ball.diameter()


def _ball_project(ball, x, tau_multi):
    """At the centre the whole sphere is nearest: the axis points +-e_k
    represent it and the diameter is its spread."""
    if _ball_centre(ball, x[None])[0]:
        axes = np.kron(np.eye(ball.dim), [[1.0], [-1.0]])
        return ProjectionResult(ball.radius, ball.center + ball.radius * axes,
                                tau_multi, spread=2.0 * ball.radius)
    rel = x - ball.center
    r = float(np.linalg.norm(rel))
    foot = ball.center + ball.radius * rel / r
    return ProjectionResult(abs(r - ball.radius), foot, tau_multi)


def _ellipse_project(ellipse, x, tau_multi):
    """Projection onto an ellipse boundary.

    On the interior medial segment (inside the evolute, on a symmetry axis)
    the two mirror feet are both reported; other queries return the unique
    root of the standard foot equation.
    """
    s = ellipse.semi_axes
    k_min = int(np.argmin(s))
    if np.linalg.norm(x) <= 1e-14 * ellipse.diameter():
        reps = np.zeros((2, ellipse.dim))
        reps[:, k_min] = (s[k_min], -s[k_min])
        return ProjectionResult(float(s.min()), reps, tau_multi)
    foot = ellipse.nearest_boundary_point(x)
    d = float(np.linalg.norm(x - foot))
    feet = [foot]
    if abs(x[k_min]) < 1e-14 * ellipse.diameter() \
            and abs(foot[k_min]) > 1e-12 * ellipse.diameter():
        mirror = foot.copy()
        mirror[k_min] = -mirror[k_min]
        feet.append(mirror)
    return ProjectionResult(d, np.array(feet), tau_multi)


# ---------------------------------------------------------------------------
# sampled surfaces
# ---------------------------------------------------------------------------

def _sampled_rows(surface, x, count, idx, span, every_rep=False):
    """Nearest-set spread and representatives of rows of sampled candidates.

    Row i of x holds count[i] >= 1 candidate samples, ascending sample
    indices idx in flat (CSR) rows, whose bounding box has diagonal
    span[i].  The candidates split into runs of chain-consecutive samples
    (consecutive samples sit within one spacing of each other along the
    surface, so an index gap of at most CLUSTER_LINK_FACTOR bounds the
    Euclidean gap by the linking distance CLUSTER_LINK_FACTOR x spacing),
    and a run through the end of a closed chain continues its first run.
    Runs of a row that come within the linking distance are one cluster,
    through one graph over the runs of all rows; each cluster's
    representative is its nearest candidate, the first one on ties in
    chain order, a wrapped run's chain tail first.

    A row of two or more clusters has the largest distance between its
    representatives as spread.  A row of one cluster has spread 0, or its
    span when that exceeds CONTINUUM_TIE_FACTOR x the surface diameter (a
    continuum tie).  A row of one run is one cluster, so its spread needs
    no representative, and the grid detector, whose rows are mostly of
    one run, skips the candidate distances that would pick it.  Returns
    (spread, multi, rep): multi marks the rows of two or more runs, and
    rep indexes idx at the representatives of those rows, or of every row
    with every_rep, row by row.
    """
    # imported on first use: scipy.sparse.csgraph adds about 1 MB of
    # resident memory to every process that would import it with the package
    from scipy.sparse.csgraph import connected_components

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
    resolve = multi | every_rep
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


def _sampled_project(surface, x, tau_multi):
    """Projection onto a sampled surface: x is one row of _sampled_rows."""
    tree = surface.tree()
    d_min, _ = tree.query(x)
    idx = np.asarray(tree.query_ball_point(x, d_min + tau_multi,
                                           return_sorted=True), dtype=np.intp)
    span = _box_diagonals(surface.points[idx], [0])
    spread, _, rep = _sampled_rows(surface, x[None], np.array([idx.size]),
                                   idx, span, every_rep=True)
    return ProjectionResult(d_min, surface.points[idx[rep]], tau_multi,
                            spread[0])


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def project(shape, x, tau_multi=None):
    """Project x onto the boundary of any supported shape.

    The shape kind, the point's dimension and the default tie window are
    checked here once; the resolver of the shape's family answers.  A Box
    is answered as its cached polytope.
    """
    if isinstance(shape, Box):
        shape = shape.as_polytope()
    if isinstance(shape, (ConvexPolytope, OffsetBody)):
        resolve = _cycle_project if shape.dim == 2 else _slack_project
    elif isinstance(shape, Ball):
        resolve = _ball_project
    elif isinstance(shape, Ellipse):
        resolve = _ellipse_project
    elif isinstance(shape, SampledSurface):
        resolve = _sampled_project
    elif isinstance(shape, GraphHypersurface):
        raise ProjectionError(
            "graphs have no exact projection; project onto "
            "shape.boundary_sample(spacing) instead")
    else:
        raise ProjectionError(f"unsupported shape {type(shape).__name__}")
    x = np.asarray(x, dtype=float)
    if x.shape != (shape.dim,):
        raise ProjectionError(f"query point must be {shape.dim}D")
    if tau_multi is None:
        tau_multi = default_tau_multi(shape)
    return resolve(shape, x, tau_multi)
