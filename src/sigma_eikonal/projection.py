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
edges; offset bodies add vertex arcs).  Near-optimal feet are kept only
when they are genuine local minima of the boundary distance profile: a foot
clamped to an element junction whose neighbor element continues downhill
through that junction is a path point, not a separate nearest-point basin,
and is discarded.  This keeps projections onto smooth convex stretches
singleton at any tolerance while still resolving true equidistant sets.

Sampled surfaces use a kd-tree query followed by connectivity clustering at
3x the sample spacing, so spread measures genuine multi-projection rather
than sampling density.  A single cluster wrapping a large fraction of the
surface (for instance the whole circle, seen from its center) is a
continuum tie and is reported as non-singleton.
"""

from __future__ import annotations

import math

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

class _Segment:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.d = self.b - self.a

    def query(self, x):
        L2 = float(self.d @ self.d)
        t = float((x - self.a) @ self.d) / L2
        if t <= 0.0:
            return float(np.linalg.norm(x - self.a)), self.a.copy(), -1
        if t >= 1.0:
            return float(np.linalg.norm(x - self.b)), self.b.copy(), +1
        foot = self.a + t * self.d
        return float(np.linalg.norm(x - foot)), foot, 0

    def query_feet(self, pts):
        """The feet query() returns, for many points: a and b exactly at
        the clamps.  vecdot runs the same dot as query's 1-D product."""
        L2 = float(self.d @ self.d)
        t = np.vecdot(pts - self.a, self.d) / L2
        feet = self.a + t[:, None] * self.d
        feet[t <= 0.0] = self.a
        feet[t >= 1.0] = self.b
        return feet


class _Arc:
    """CCW circular arc from angle a0 through sweep, radius r about center."""

    __slots__ = ("center", "a0", "sweep", "r", "e0", "e1")

    def __init__(self, center, a0, sweep, r):
        self.center = np.asarray(center, dtype=float)
        self.a0 = float(a0)
        self.sweep = float(sweep)
        self.r = float(r)
        self.e0 = self.center + r * np.array([math.cos(a0), math.sin(a0)])
        a1 = a0 + sweep
        self.e1 = self.center + r * np.array([math.cos(a1), math.sin(a1)])

    def query(self, x):
        rel = x - self.center
        rho = float(np.linalg.norm(rel))
        if rho <= 1e-300:
            # degenerate: every arc point is equidistant; caller special-cases
            return self.r, self.e0.copy(), -1
        local = (math.atan2(rel[1], rel[0]) - self.a0) % (2.0 * math.pi)
        if local <= self.sweep:
            foot = self.center + self.r * rel / rho
            return abs(rho - self.r), foot, 0
        d0 = float(np.linalg.norm(x - self.e0))
        d1 = float(np.linalg.norm(x - self.e1))
        if d0 <= d1:
            return d0, self.e0.copy(), -1
        return d1, self.e1.copy(), +1

    def query_feet(self, pts):
        """The feet query() returns, for many points: the radial foot on
        the sector, the nearer end off it, e0 at the centre.  Norms are
        square roots of vecdot, as in query's 1-D norms; the sector angle
        is numpy's arctan2, as in geometry's arc kernel."""
        rel = pts - self.center
        rho = np.sqrt(np.vecdot(rel, rel))
        local = (np.arctan2(rel[:, 1], rel[:, 0]) - self.a0) % (2.0 * np.pi)
        centre = rho <= 1e-300
        radial = self.center + self.r * rel \
            / np.where(centre, 1.0, rho)[:, None]
        w0, w1 = pts - self.e0, pts - self.e1
        near0 = np.sqrt(np.vecdot(w0, w0)) <= np.sqrt(np.vecdot(w1, w1))
        ends = np.where(near0[:, None], self.e0, self.e1)
        feet = np.where((local <= self.sweep)[:, None], radial, ends)
        feet[centre] = self.e0
        return feet


def _polytope_cycle(poly):
    a, b = poly.edges()
    return [_Segment(a[i], b[i]) for i in range(a.shape[0])]


def _offset_cycle(body):
    (seg_a, seg_b, _), arcs = body.elements()
    cycle = []
    for i in range(seg_a.shape[0]):
        center, a0, sweep = arcs[i]
        cycle.append(_Arc(center, a0, sweep, body.epsilon))
        cycle.append(_Segment(seg_a[i], seg_b[i]))
    return cycle


def _cycle_project(cycle, x, tau_multi, diam):
    """Shared nearest-set extraction over an ordered element cycle."""
    n = len(cycle)
    results = [el.query(x) for el in cycle]
    d_opt = min(r[0] for r in results)
    window = tau_multi
    eq_tol = 1e-12 * max(1.0, diam)
    cands = [k for k in range(n) if results[k][0] <= d_opt + window]
    feet = []
    for k in cands:
        d, foot, clamp = results[k]
        if clamp != 0:
            nb = (k + 1) % n if clamp > 0 else (k - 1) % n
            if results[nb][0] < d - eq_tol:
                continue  # boundary distance keeps falling past the junction
        feet.append(foot)
    nearest = _dedupe(np.array(feet), 1e-9 * max(1.0, diam))
    return d_opt, nearest


def _shape_cycle(shape):
    """The element cycle of a 2D polytope or offset body."""
    if isinstance(shape, OffsetBody):
        return _offset_cycle(shape)
    return _polytope_cycle(shape)


def _cycle_nearest_feet(shape, pts):
    """One nearest boundary foot per point of a 2D polytope or offset.

    Intended for bulk gradient evaluation away from ties, where any single
    global minimizer determines the gradient.  The nearest element is the
    row argmin of geometry's element distance matrix.
    """
    k_best = np.empty(pts.shape[0], dtype=np.intp)
    for rows, dist, _ in _element_distance_blocks(shape, pts):
        k_best[rows] = dist.argmin(axis=1)
    feet = np.empty_like(pts)
    for k, el in enumerate(_shape_cycle(shape)):
        sel = k_best == k
        if sel.any():
            feet[sel] = el.query_feet(pts[sel])
    return feet


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
        d_opt, nearest = _cycle_project(_polytope_cycle(poly), x, tau_multi,
                                        poly.diameter())
        return ProjectionResult(d_opt, nearest, tau_multi)
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
    query at a base vertex sees the whole vertex arc at the same distance
    and is reported as a continuum tie through the arc endpoints and
    midpoint.  3D builds on the base projection: inside the base the feet
    are the base's facet feet pushed out by epsilon along their normals,
    one per active facet at a base edge or vertex; outside it the nearest
    point is unique.
    """
    if not isinstance(body, OffsetBody):
        raise ProjectionError("project_offset requires an offset body")
    x = np.asarray(x, dtype=float)
    if x.shape != (body.dim,):
        raise ProjectionError(f"query point must be {body.dim}D")
    if tau_multi is None:
        tau_multi = default_tau_multi(body)

    if body.dim == 2:
        diam = body.diameter()
        _, arcs = body.elements()
        eps = body.epsilon
        for center, a0, sweep in arcs:
            if np.linalg.norm(x - center) <= 1e-12 * diam:
                angles = [a0, a0 + 0.5 * sweep, a0 + sweep]
                tie = np.array([center + eps * np.array([math.cos(t),
                                                         math.sin(t)])
                                for t in angles])
                chord = 2.0 * eps * math.sin(min(0.5 * sweep, 0.5 * math.pi))
                return ProjectionResult(eps, tie, tau_multi, spread=chord)
        d_opt, nearest = _cycle_project(_offset_cycle(body), x, tau_multi,
                                        diam)
        return ProjectionResult(d_opt, nearest, tau_multi)

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
