"""Nearest-point projection onto shape boundaries, with multiplicity.

The central object is ProjectionResult: the distance to the boundary, a set
of nearest-point representatives, and a spread diagnostic.  ``tau_multi``
plays two roles: feet within tau_multi of the optimal distance are
considered near-ties, and the projection counts as a singleton exactly when
the representatives' spread stays within tau_multi.  The default is
1e-9 x diameter for exact shapes (true ties only) and 2 x sample spacing
for sampled surfaces; grid detectors pass a grid-scaled value.

Inside a 3D convex polytope the nearest set follows from the facet
slacks in closed form (_slack_feet); the same feet pushed out by epsilon
are the nearest set of an offset body, and outside a convex body the
nearest point is unique.

For exact 2D shapes the boundary is an ordered cycle of elements (polygon
edges; offset bodies add vertex arcs), held as arrays by the shape and
queried all at once by geometry._element_query, the one element kernel
that the grid detector and the bulk feet also call.  Near-optimal feet are
kept only when they are genuine local minima of the boundary distance
profile (_nearest_elements, shared with the detector): a foot clamped to
an element junction whose neighbor element continues downhill through
that junction is a path point, not a separate nearest-point basin, and is
discarded.  This keeps projections onto smooth convex stretches singleton
at any tolerance while still resolving true equidistant sets.  A point on
a base vertex of an offset needs no special case: the arc's two end
points survive and their spread is the arc's chord.

Sampled surfaces use a kd-tree query followed by connectivity clustering at
3x the sample spacing, so spread measures genuine multi-projection rather
than sampling density.  A single cluster wrapping a large fraction of the
surface (for instance the whole circle, seen from its center) is a
continuum tie and is reported as non-singleton.
"""

from __future__ import annotations

import numpy as np

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


class ProjectionError(ValueError):
    """Invalid projection query."""


class ProjectionResult:
    """Distance plus the (possibly multiple) nearest boundary points.

    ``nearest`` is a (k, dim) array of nearest-set representatives;
    ``spread`` is their maximum pairwise distance (or the tie extent for
    continuum ties) and ``is_singleton`` is True exactly when
    spread <= tau_multi.
    """

    __slots__ = ("distance", "nearest", "is_singleton", "spread", "tau_multi")

    def __init__(self, distance, nearest, tau_multi, spread=None):
        nearest = np.atleast_2d(np.asarray(nearest, dtype=float))
        if spread is None:
            spread = _max_pairwise(nearest)
        self.distance = float(distance)
        self.nearest = nearest
        self.spread = float(spread)
        self.tau_multi = float(tau_multi)
        self.is_singleton = self.spread <= tau_multi

    def __repr__(self):
        return (f"ProjectionResult(distance={self.distance:.6g}, "
                f"k={self.nearest.shape[0]}, spread={self.spread:.3g}, "
                f"singleton={self.is_singleton})")


def _max_pairwise(points):
    if points.shape[0] < 2:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def _dedupe(points, tol):
    keep = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol for q in keep):
            keep.append(p)
    return np.array(keep)


def default_tau_multi(shape):
    if isinstance(shape, SampledSurface):
        return SAMPLED_TAU_FACTOR * shape.spacing
    return EXACT_TAU_FACTOR * shape.diameter()


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
    after = np.concatenate((dist[:, 1:], dist[:, :1]), axis=1)
    before = np.concatenate((dist[:, -1:], dist[:, :-1]), axis=1)
    nb_dist = np.where(clamp > 0, after, before)
    return d_opt, cand & ~((clamp != 0) & (nb_dist < dist - eq_tol))


def _cycle_project(shape, x, tau_multi):
    """Distance and deduplicated nearest feet of x on a 2D polytope or
    offset: one query of x on every element, one row of the junction rule."""
    diam = shape.diameter()
    n_el = shape._cycle.size
    dist, foot, clamp = _element_query(shape, np.broadcast_to(x, (n_el, 2)),
                                       np.arange(n_el))
    d_opt, kept = _nearest_elements(dist[None], clamp[None], tau_multi,
                                    1e-12 * max(1.0, diam))
    return d_opt[0], _dedupe(foot[kept[0]], 1e-9 * max(1.0, diam))


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


def project_polytope(poly, x, tau_multi=None):
    """Exact projection onto the boundary of a convex polytope.

    2D uses the edge cycle with basin filtering.  3D takes the distance
    from the hull triangles and the nearest set from the facet slacks
    (_slack_feet) inside the body; outside it, the nearest point is unique
    and is the nearest triangle's foot.
    """
    if isinstance(poly, Box):
        poly = poly.as_polytope()
    if not isinstance(poly, ConvexPolytope):
        raise ProjectionError("project_polytope requires a convex polytope")
    x = np.asarray(x, dtype=float)
    if x.shape != (poly.dim,):
        raise ProjectionError(f"query point must be {poly.dim}D")
    if tau_multi is None:
        tau_multi = default_tau_multi(poly)
    if poly.dim == 2:
        return ProjectionResult(*_cycle_project(poly, x, tau_multi),
                                tau_multi)
    hull = poly.hull()
    tri = tuple(hull.points[hull.simplices[:, k]] for k in range(3))
    feet = _closest_point_triangles(x[None], *tri)[0]
    dist = np.linalg.norm(feet - x, axis=1)
    _, nearest = _slack_feet(poly, x[None], tau_multi)
    if nearest.shape[0] == 0:
        nearest = feet[np.argmin(dist)]
    return ProjectionResult(dist.min(), nearest, tau_multi)


def project_offset(body, x, tau_multi=None):
    """Exact projection onto the boundary of an offset body.

    2D enumerates the offset boundary directly (pushed edges plus vertex
    arcs), which keeps the result independent of the base distance.  A
    query at a base vertex sees the whole vertex arc at the same distance;
    its nearest set holds the arc's two end points (the feet of the two
    pushed edges there), so its spread is the arc's chord.  3D builds on
    the base projection: inside the base the feet are the base's facet
    feet pushed out by epsilon along their normals, one per active facet
    at a base edge or vertex; outside it the nearest point is unique.
    """
    if not isinstance(body, OffsetBody):
        raise ProjectionError("project_offset requires an offset body")
    x = np.asarray(x, dtype=float)
    if x.shape != (body.dim,):
        raise ProjectionError(f"query point must be {body.dim}D")
    if tau_multi is None:
        tau_multi = default_tau_multi(body)

    if body.dim == 2:
        return ProjectionResult(*_cycle_project(body, x, tau_multi),
                                tau_multi)
    base_res = project_polytope(body.base, x, tau_multi)
    eps = body.epsilon
    d_base = base_res.distance
    _, pushed = _slack_feet(body.base, x[None], tau_multi, eps)
    if pushed.shape[0]:
        return ProjectionResult(eps + d_base, pushed, tau_multi)
    u = x - base_res.nearest[0]
    u /= np.linalg.norm(u)
    foot = base_res.nearest[0] + eps * u
    return ProjectionResult(abs(d_base - eps), foot[None, :], tau_multi)


def project_ball(ball, x, tau_multi=None):
    if tau_multi is None:
        tau_multi = default_tau_multi(ball)
    x = np.asarray(x, dtype=float)
    rel = x - ball.center
    r = float(np.linalg.norm(rel))
    if r <= 1e-12 * ball.diameter():
        # center: the whole boundary is nearest; report axis representatives
        reps = []
        for k in range(ball.dim):
            for s in (1.0, -1.0):
                e = np.zeros(ball.dim)
                e[k] = s
                reps.append(ball.center + ball.radius * e)
        return ProjectionResult(ball.radius, np.array(reps), tau_multi,
                                spread=2.0 * ball.radius)
    foot = ball.center + ball.radius * rel / r
    return ProjectionResult(abs(r - ball.radius), foot[None, :], tau_multi)


def project_ellipse(ellipse, x, tau_multi=None):
    """Projection onto an ellipse boundary.

    On the interior medial segment (inside the evolute, on a symmetry axis)
    the two mirror feet are both reported; other queries return the unique
    root of the standard foot equation.
    """
    if tau_multi is None:
        tau_multi = default_tau_multi(ellipse)
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) <= 1e-14 * ellipse.diameter():
        k = int(np.argmin(ellipse.semi_axes))
        reps = []
        for s in (1.0, -1.0):
            e = np.zeros(ellipse.dim)
            e[k] = s * ellipse.semi_axes[k]
            reps.append(e)
        return ProjectionResult(float(ellipse.semi_axes.min()),
                                np.array(reps), tau_multi)
    foot = ellipse.nearest_boundary_point(x)
    d = float(np.linalg.norm(x - foot))
    s = ellipse.semi_axes
    k_min = int(np.argmin(s))
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

def _link_clusters(points, link):
    """Single-linkage clusters at the given linking distance (small sets)."""
    n = points.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= link:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def project_sampled(surface, x, tau_multi=None):
    """Projection onto a sampled surface with connectivity clustering."""
    if not isinstance(surface, SampledSurface):
        raise ProjectionError("project_sampled requires a SampledSurface")
    x = np.asarray(x, dtype=float)
    if x.shape != (surface.dim,):
        raise ProjectionError(f"query point must be {surface.dim}D")
    if tau_multi is None:
        tau_multi = default_tau_multi(surface)

    tree = surface.tree()
    d_min, _ = tree.query(x)
    d_min = float(d_min)
    idx = tree.query_ball_point(x, d_min + tau_multi)
    cand = surface.points[idx]
    cand_d = np.linalg.norm(cand - x, axis=1)
    link = CLUSTER_LINK_FACTOR * surface.spacing
    clusters = _link_clusters(cand, link)

    reps = []
    for members in clusters:
        best = min(members, key=lambda i: cand_d[i])
        reps.append(cand[best])
    reps = np.array(reps)

    if len(clusters) == 1:
        extent = _max_pairwise(cand)
        if extent > CONTINUUM_TIE_FACTOR * surface.diameter():
            order = np.argsort(cand_d)[:8]
            return ProjectionResult(d_min, cand[order], tau_multi,
                                    spread=extent)
        return ProjectionResult(d_min, reps, tau_multi, spread=0.0)
    return ProjectionResult(d_min, reps, tau_multi)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def project(shape, x, tau_multi=None):
    """Project x onto the boundary of any supported shape."""
    if isinstance(shape, (ConvexPolytope, Box)):
        return project_polytope(shape, x, tau_multi)
    if isinstance(shape, OffsetBody):
        return project_offset(shape, x, tau_multi)
    if isinstance(shape, Ball):
        return project_ball(shape, x, tau_multi)
    if isinstance(shape, Ellipse):
        return project_ellipse(shape, x, tau_multi)
    if isinstance(shape, SampledSurface):
        return project_sampled(shape, x, tau_multi)
    if isinstance(shape, GraphHypersurface):
        raise ProjectionError(
            "graphs have no exact projection; project onto "
            "shape.boundary_sample(spacing) instead")
    raise ProjectionError(f"unsupported shape {type(shape).__name__}")
