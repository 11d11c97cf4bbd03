"""Reference implementations kept as bit-for-bit oracles, and one closed form.

These are the per-node loops that ``geometry._polytope_boundary_distance_3d``,
``eikonal.fast_march``, the row resolution of ``projection._cycle_rows``
and ``projection._sampled_rows`` (the rows functions that
``singular.detect_multiproj`` runs over its grid rows), the inner-ball
bisection and the Qhull vertex dedupe of ``ConvexPolytope`` replaced
(``polytope_vertices``, the reference of the 2D ring and the 3D plane
triples, which meet it within the contracts of ``assert_ring_matches_qhull``
and ``assert_vertices_match_qhull``), and the
per-element loops that ``geometry._element_blocks`` and
``geometry._element_feet`` replaced: the 2D boundary distance with one arc
at a time, the element queries of the 2D detector, and the scalar element
objects (``Segment``, ``Arc``) with the one-point projection over their
cycle (``cycle_project``, which ``projection._cycle_rows`` replaced).
``Segment.query`` and ``Arc.query`` run the order of operations of
``geometry._segment_distances`` and ``geometry._arc_distances`` on one
point and one element (``plane_distance`` is their square root of
explicit products), so their distances are the distance matrix's entries
and their feet ``_element_feet``'s, bit for bit.  The
(n, m, 2) einsum and norm forms of the 2D kernels that the coordinate-plane
``geometry._segment_distances`` and ``geometry._arc_distances`` replaced
are ``point_segment_distance`` and ``arc_distance_matrix``, with their
clamp codes; ``element_distance_matrix`` lays them out in cycle order.
``closest_point_triangles`` is the (n, m, 3) broadcast point-triangle
kernel that ``geometry._triangle_feet`` replaced: that one runs the same
per-pair arithmetic on the (point, triangle) pairs that the pruning bounds
of ``geometry._triangle_pairs`` keep.  ``dedupe`` and ``max_pairwise``
are the one-row forms of ``projection._spreads``.  ``_solve_update`` is
the sorted-list Godunov update that ``eikonal.fast_march`` runs inline,
and ``one_sided_cosines`` (with ``detect_gradjump`` on top) the
(n, 2^dim, 2^dim) einsum cosine matrix that the pairwise cosines of
``singular._one_sided_cosines`` replaced.  ``matrix_spreads`` is
``projection._matrix_spreads`` with the column-by-column first-come pass
that its fixpoint replaced.  The production code
must return exactly the same arrays (``np.array_equal``): the kernels and the march
keep the same arithmetic and the same acceptance order, and the batched
row resolution and bisection make the same decisions.

``connected_components`` is scipy's csgraph labelling, which the
min-label propagation of ``projection._components`` replaced in the run
linking of ``projection._sampled_clusters``.

``project_sampled`` is the one-point sampled projection that
``projection._sampled_clusters`` replaced: single-linkage clusters of all
candidates by a pairwise union-find, and a continuum tie when one cluster
spans more than half the surface diameter.  It gives the same distance;
its nearest set differs only at continuum ties.

``cycle_nearest_feet`` and ``ball_nearest_feet`` are the one-foot-per-point
paths that the gradient lemma's feet took before it read the first foot of
each row of the family's rows function at tie window 0: the foot on the
first element in cycle order that attains a point's distance, and the
ball's radial closed form.

``slack_flags`` is not a replaced loop: it decides the multiproj flags of
a convex polytope or offset from its facet normals and offsets alone, with
neither element cycles nor triangles; ``box_boundary_distance`` is the
closed form of a box's distance, independent of its polytope.
``ellipse_nearest_point`` is the one-point brentq solve that the bisection
of ``geometry._ellipse_feet`` replaced; its distances agree to 1e-12, not
bit for bit.
"""

import heapq
import math

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import HalfspaceIntersection

from sigma_eikonal.distance import ScalarField
from sigma_eikonal.eikonal import ACCEPT_SLACK
from sigma_eikonal.geometry import GraphHypersurface, OffsetBody, \
    SampledSurface, _element_feet
from sigma_eikonal.innerball import BISECT_STEPS, TAU_BALL_FACTOR, InnerBallError


def max_pairwise(points):
    """Largest distance between two of the points, 0 for one point."""
    if points.shape[0] < 2:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def dedupe(points, tol):
    """The points, less each one within tol of an earlier kept one."""
    keep = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol for q in keep):
            keep.append(p)
    return np.array(keep)


def matrix_spreads(pad, cnt, tol):
    """(reps, spread) of an (r, w) block of padded rows of points, as
    projection._matrix_spreads: reps None when no slot is near another,
    else kept column by column, slot j when it is real and near no kept
    slot before it."""
    r, w = pad.shape[:2]
    diff = pad[:, :, None, :] - pad[:, None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=3))
    reps = None
    near = None if tol is None else dist <= tol
    if near is not None and np.count_nonzero(near) > r * w:
        reps = np.arange(w) < cnt
        for j in range(1, w):
            reps[:, j] &= ~(reps[:, :j] & near[:, j, :j]).any(axis=1)
        dist = np.where(reps[:, :, None] & reps[:, None, :], dist, 0.0)
    return reps, dist.max(axis=(1, 2))


def box_boundary_distance(box, points):
    """Closed-form distance to the boundary of an origin-centred box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    q = np.abs(points) - box.extents
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return np.abs(outside + inside)


def ellipse_nearest_point(ellipse, point):
    """Nearest point on an ellipse, one brentq solve of the foot equation.

    Solves sum((s_i x_i / (t + s_i^2))^2) = 1 by bracketing, to a relative
    tolerance on t + s_min^2 (the root's distance from the pole); valid for
    generic points (nonzero component along the shorter axis).  The centre
    falls back to a minor-axis endpoint, and a point on the major axis to
    its nearer axis endpoint or, inside the evolute, the off-axis foot.
    """
    p = np.asarray(point, dtype=float)
    s = ellipse.semi_axes
    scale = float(s.max())
    k_min = int(np.argmin(s))
    if np.linalg.norm(p) <= 1e-14 * scale:
        q = np.zeros(2)
        q[k_min] = s[k_min]
        return q
    s2 = s * s

    if abs(p[k_min]) < 1e-14 * scale:
        k = 1 - k_min
        q = np.zeros(2)
        q[k] = math.copysign(s[k], p[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (p[k] * s[k] / (s2[k] - s2[k_min])) ** 2
        if np.isfinite(u) and u < 1.0:
            q_alt = np.zeros(2)
            q_alt[k] = p[k] * s2[k] / (s2[k] - s2[k_min])
            q_alt[k_min] = s[k_min] * math.sqrt(1.0 - u)
            if np.linalg.norm(q_alt - p) < np.linalg.norm(q - p):
                q = q_alt
        return q

    # solve for w = t + s_min^2 > 0, so that brentq's tolerance is
    # relative to w: near the major axis w is tiny, and a tolerance
    # absolute on t would leave few of its digits
    shift = s2 - s2[k_min]

    def g(w):
        return float(np.sum((s * p / (w + shift)) ** 2) - 1.0)

    # g(w) > (s_min p_min / w)^2 - 1 > 0 below w = s_min |p_min|
    lo = 0.5 * float(s[k_min] * abs(p[k_min]))
    hi = float(np.linalg.norm(s * p))
    while g(hi) > 0.0:
        hi *= 2.0
    w = brentq(g, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
               maxiter=200)
    return s2 * p / (w + shift)


def ellipse_boundary_distance(ellipse, points):
    """Distance to an ellipse, one ellipse_nearest_point per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([np.linalg.norm(p - ellipse_nearest_point(ellipse, p))
                     for p in points])


def closest_point_triangles_one(p, tri_a, tri_b, tri_c):
    """Exact closest points from one point to many triangles (3D)."""
    ab = tri_b - tri_a
    ac = tri_c - tri_a
    ap = p - tri_a
    d1 = np.einsum("md,md->m", ab, ap)
    d2 = np.einsum("md,md->m", ac, ap)
    bp = p - tri_b
    d3 = np.einsum("md,md->m", ab, bp)
    d4 = np.einsum("md,md->m", ac, bp)
    cp = p - tri_c
    d5 = np.einsum("md,md->m", ab, cp)
    d6 = np.einsum("md,md->m", ac, cp)

    result = np.empty_like(tri_a)
    done = np.zeros(tri_a.shape[0], dtype=bool)

    mask = (d1 <= 0) & (d2 <= 0)
    result[mask] = tri_a[mask]
    done |= mask

    mask = (~done) & (d3 >= 0) & (d4 <= d3)
    result[mask] = tri_b[mask]
    done |= mask

    vc = d1 * d4 - d3 * d2
    mask = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = np.where(np.abs(d1 - d3) < 1e-300, 1.0, d1 - d3)
    v = d1 / denom
    result[mask] = tri_a[mask] + v[mask, None] * ab[mask]
    done |= mask

    mask = (~done) & (d6 >= 0) & (d5 <= d6)
    result[mask] = tri_c[mask]
    done |= mask

    vb = d5 * d2 - d1 * d6
    mask = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = np.where(np.abs(d2 - d6) < 1e-300, 1.0, d2 - d6)
    w = d2 / denom
    result[mask] = tri_a[mask] + w[mask, None] * ac[mask]
    done |= mask

    va = d3 * d6 - d5 * d4
    mask = (~done) & (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    denom = (d4 - d3) + (d5 - d6)
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    w = (d4 - d3) / denom
    result[mask] = tri_b[mask] + w[mask, None] * (tri_c[mask] - tri_b[mask])
    done |= mask

    mask = ~done
    denom = va + vb + vc
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    v = vb / denom
    w = vc / denom
    result[mask] = (tri_a[mask] + v[mask, None] * ab[mask]
                    + w[mask, None] * ac[mask])
    return result


def closest_point_triangles(points, tri_a, tri_b, tri_c):
    """Exact closest points from points (n, 3) to triangles (m, 3).

    Returns the feet, shape (n, m, 3).  Each (point, triangle) pair runs
    Ericson's Voronoi-region tests in a fixed order with the same
    arithmetic, so a pair's foot does not depend on the other pairs.  This
    is the broadcast kernel that ``geometry._triangle_feet`` (pair form,
    on the pruned pairs of ``geometry._triangle_pairs``) replaced.
    """
    shape = (points.shape[0],) + tri_a.shape
    p = points[:, None, :]
    ab = tri_b - tri_a
    ac = tri_c - tri_a
    ap = p - tri_a
    d1 = np.einsum("nmd,md->nm", ap, ab)
    d2 = np.einsum("nmd,md->nm", ap, ac)
    bp = p - tri_b
    d3 = np.einsum("nmd,md->nm", bp, ab)
    d4 = np.einsum("nmd,md->nm", bp, ac)
    cp = p - tri_c
    d5 = np.einsum("nmd,md->nm", cp, ab)
    d6 = np.einsum("nmd,md->nm", cp, ac)
    tri_a = np.broadcast_to(tri_a, shape)
    tri_b = np.broadcast_to(tri_b, shape)
    tri_c = np.broadcast_to(tri_c, shape)
    ab = np.broadcast_to(ab, shape)
    ac = np.broadcast_to(ac, shape)

    result = np.empty(shape)
    done = np.zeros(shape[:2], dtype=bool)

    mask = (d1 <= 0) & (d2 <= 0)
    result[mask] = tri_a[mask]
    done |= mask

    mask = (~done) & (d3 >= 0) & (d4 <= d3)
    result[mask] = tri_b[mask]
    done |= mask

    vc = d1 * d4 - d3 * d2
    mask = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = np.where(np.abs(d1 - d3) < 1e-300, 1.0, d1 - d3)
    v = d1 / denom
    result[mask] = tri_a[mask] + v[mask, None] * ab[mask]
    done |= mask

    mask = (~done) & (d6 >= 0) & (d5 <= d6)
    result[mask] = tri_c[mask]
    done |= mask

    vb = d5 * d2 - d1 * d6
    mask = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = np.where(np.abs(d2 - d6) < 1e-300, 1.0, d2 - d6)
    w = d2 / denom
    result[mask] = tri_a[mask] + w[mask, None] * ac[mask]
    done |= mask

    va = d3 * d6 - d5 * d4
    mask = (~done) & (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    denom = (d4 - d3) + (d5 - d6)
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    w = (d4 - d3) / denom
    result[mask] = tri_b[mask] + w[mask, None] * (tri_c[mask] - tri_b[mask])
    done |= mask

    mask = ~done
    denom = va + vb + vc
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    v = vb / denom
    w = vc / denom
    result[mask] = (tri_a[mask] + v[mask, None] * ab[mask]
                    + w[mask, None] * ac[mask])
    return result


def polytope_vertices(poly):
    """ConvexPolytope vertices, deduping the Qhull intersection points one
    by one."""
    halfspaces = np.hstack([poly.normals, -poly.offsets[:, None]])
    pts = HalfspaceIntersection(halfspaces, poly.chebyshev_center).intersections
    scale = max(1.0, float(np.abs(pts).max()))
    keep = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-9 * scale for q in keep):
            keep.append(p)
    verts = np.array(keep)
    if poly.dim == 2:
        ref = verts.mean(axis=0)
        ang = np.arctan2(verts[:, 1] - ref[1], verts[:, 0] - ref[0])
        verts = verts[np.argsort(ang)]
    return verts


def assert_ring_matches_qhull(poly):
    """The contract of a 2D polytope's ring vertices against
    polytope_vertices: the same count and cyclic order; each vertex
    within 1e-15 x scale of both lines it lies on, the lines of its two
    edges; and within 1e-15 x scale / sin(theta) of Qhull's vertex, theta
    the angle between those lines.  scale is max(1, largest coordinate).

    Both rings start at the vertex of least angle about their vertex
    mean, and a vertex at a half-turn from it (as on a regular polygon)
    reads pi or -pi by rounding, so Qhull's ring is first turned to start
    at the vertex nearest this one's first.  Returns that shift."""
    verts, want = poly.vertices, polytope_vertices(poly)
    assert verts.shape == want.shape
    shift = int(np.argmin(np.linalg.norm(want - verts[0], axis=1)))
    want = np.roll(want, -shift, axis=0)
    scale = max(1.0, float(np.abs(want).max()))
    resid = np.abs(verts @ poly.normals.T - poly.offsets)
    # the line of edge k (vertex k to k + 1): the least residual over both
    after = np.argmin(resid + np.roll(resid, -1, axis=0), axis=1)
    before = np.roll(after, 1)
    rows = np.arange(verts.shape[0])
    assert (resid[rows, before] <= 1e-15 * scale).all()
    assert (resid[rows, after] <= 1e-15 * scale).all()
    n, m = poly.normals[before], poly.normals[after]
    sin = np.abs(n[:, 0] * m[:, 1] - n[:, 1] * m[:, 0])
    assert (np.linalg.norm(verts - want, axis=1) * sin
            <= 1e-15 * scale).all()
    return shift


def assert_vertices_match_qhull(poly, tol=1e-12):
    """The contract of a 3D polytope's vertices, which come from its plane
    triples, against polytope_vertices (Qhull's, deduped): the same
    count; each vertex within tol x scale of a Qhull vertex; and each on
    at least three facet planes within 1e-12 x scale, the rounding of its
    triple's closed form.  scale is max(1, largest Qhull coordinate)."""
    verts, want = poly.vertices, polytope_vertices(poly)
    assert verts.shape == want.shape
    scale = max(1.0, float(np.abs(want).max()))
    gap = np.linalg.norm(verts[:, None] - want[None], axis=2).min(axis=1)
    assert (gap <= tol * scale).all()
    resid = np.abs(verts @ poly.normals.T - poly.offsets)
    assert ((resid <= 1e-12 * scale).sum(axis=1) >= 3).all()


def polytope_boundary_distance_3d(poly, points):
    """Boundary distance of a 3D polytope, one point at a time, over the
    corners of its facet triangles."""
    tri = poly.triangles()
    tri_a, tri_b, tri_c = (poly.vertices[tri.index[:, k]] for k in range(3))
    out = np.empty(points.shape[0])
    for i, p in enumerate(points):
        feet = closest_point_triangles_one(p, tri_a, tri_b, tri_c)
        out[i] = np.min(np.linalg.norm(feet - p, axis=1))
    return out


def _solve_update(avals, h):
    """Largest-branch Godunov update from sorted axis values."""
    t = avals[0] + h
    if len(avals) >= 2 and t > avals[1]:
        a, b = avals[0], avals[1]
        disc = 2.0 * h * h - (a - b) ** 2
        if disc > 0.0:
            t = 0.5 * (a + b + math.sqrt(disc))
        if len(avals) == 3 and t > avals[2]:
            s1 = avals[0] + avals[1] + avals[2]
            s2 = (avals[0] * avals[0] + avals[1] * avals[1]
                  + avals[2] * avals[2])
            disc = s1 * s1 - 3.0 * (s2 - h * h)
            if disc > 0.0:
                t3 = (s1 + math.sqrt(disc)) / 3.0
                if t3 > avals[2]:
                    t = t3
    return t


def fast_march(problem):
    """Heap fast marching with numpy-indexed state, one node at a time."""
    grid = problem.grid
    h = grid.spacing
    dims = grid.dims
    n = grid.n_nodes
    dim = grid.dim

    values = np.full(n, np.inf)
    accepted = np.zeros(n, dtype=bool)

    strides = [1] * dim
    for k in range(dim - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]

    def flat(idx):
        return sum(i * s for i, s in zip(idx, strides))

    heap = []
    for idx, val in problem.seeds:
        fi = flat(idx)
        if val < values[fi]:
            values[fi] = val
            heapq.heappush(heap, (val, fi))

    coords = np.empty(dim, dtype=np.int64)

    def unflatten(fi):
        rem = fi
        for k in range(dim):
            coords[k] = rem // strides[k]
            rem -= coords[k] * strides[k]
        return coords

    last_accepted = -math.inf
    n_accepted = 0
    while heap:
        val, fi = heapq.heappop(heap)
        if accepted[fi] or val != values[fi]:
            continue
        if val < last_accepted - ACCEPT_SLACK * (1.0 + abs(val)):
            raise AssertionError("acceptance order lost monotonicity")
        last_accepted = val
        accepted[fi] = True
        n_accepted += 1
        c = unflatten(fi)
        for k in range(dim):
            for step in (-1, 1):
                ck = c[k] + step
                if ck < 0 or ck >= dims[k]:
                    continue
                nb = fi + step * strides[k]
                if accepted[nb]:
                    continue
                avals = []
                base = nb
                ci = c.copy()
                ci[k] = ck
                for ax in range(dim):
                    best = math.inf
                    if ci[ax] > 0:
                        cand = base - strides[ax]
                        if accepted[cand]:
                            best = values[cand]
                    if ci[ax] < dims[ax] - 1:
                        cand = base + strides[ax]
                        if accepted[cand] and values[cand] < best:
                            best = values[cand]
                    if best < math.inf:
                        avals.append(best)
                if not avals:
                    continue
                avals.sort()
                t = _solve_update(avals, h)
                if t < values[nb]:
                    values[nb] = t
                    heapq.heappush(heap, (t, nb))

    unreachable = int(np.count_nonzero(~accepted))
    return ScalarField(grid, values.reshape(dims), kind="eikonal_solution",
                       meta={"accepted": n_accepted,
                             "unreachable": unreachable})


def point_segment_distance(points, seg_a, seg_b):
    """Distances and clamp codes (n, m) from points (n, d) to segments
    (m, d), through (n, m, d) arrays and einsum over the coordinate axis;
    clamp is -1 where the foot is the segment start, +1 at its end, else 0.
    """
    d = seg_b - seg_a
    L2 = np.einsum("md,md->m", d, d)
    L2 = np.where(L2 <= 0.0, 1.0, L2)
    w = points[:, None, :] - seg_a[None, :, :]
    t = np.einsum("nmd,md->nm", w, d) / L2
    t = np.clip(t, 0.0, 1.0)
    feet = seg_a[None, :, :] + t[..., None] * d[None, :, :]
    diff = points[:, None, :] - feet
    dist = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    clamp = (t == 1.0).astype(np.int8) - (t == 0.0)
    return dist, clamp


def arc_distance_matrix(points, center, a0, sweep, e0, e1, radius):
    """Distances and clamp codes (n, m) from points (n, 2) to CCW arcs,
    through (n, m, 2) arrays and np.linalg.norm: the radial foot (0) on
    an arc's sector, else the nearer end point (-1 for e0, +1 for e1)."""
    p = points[:, None, :]
    rel = p - center
    r = np.linalg.norm(rel, axis=2)
    local = (np.arctan2(rel[..., 1], rel[..., 0]) - a0) % (2.0 * np.pi)
    on_arc = (local <= sweep) & (r > 1e-300)
    d0 = np.linalg.norm(p - e0, axis=2)
    d1 = np.linalg.norm(p - e1, axis=2)
    nearer0 = d0 <= d1
    dist = np.where(on_arc, np.abs(r - radius), np.where(nearer0, d0, d1))
    clamp = np.where(on_arc, 0, np.where(nearer0, -1, 1)).astype(np.int8)
    return dist, clamp


def element_distance_matrix(shape, points):
    """The (node, element) distance and clamp matrices of a 2D polytope or
    offset in cycle order, from point_segment_distance and
    arc_distance_matrix over all points at once.  They stay point-major,
    (n, E), as the reference: geometry._element_blocks yields the
    element-major (E, n) transpose."""
    cyc = shape._cycle
    seg = point_segment_distance(points, cyc.seg_a, cyc.seg_b)
    if not cyc.radius:
        return seg
    arc = arc_distance_matrix(points, cyc.center, cyc.a0, cyc.sweep, cyc.e0,
                              cyc.e1, cyc.radius)
    dist = np.empty((points.shape[0], cyc.size))
    clamp = np.empty((points.shape[0], cyc.size), dtype=np.int8)
    dist[:, 0::2], clamp[:, 0::2] = arc
    dist[:, 1::2], clamp[:, 1::2] = seg
    return dist, clamp


def cycle_nearest_feet(shape, points, block=1024):
    """One nearest foot per point of a 2D polytope or offset: the foot on
    the point's first nearest element in cycle order, its argmin of
    element_distance_matrix, from geometry._element_feet and that entry's
    clamp code.  Points go in blocks, to bound the (n, E, 2) arrays."""
    feet = np.empty_like(points)
    for lo in range(0, points.shape[0], block):
        pts = points[lo:lo + block]
        dist, clamp = element_distance_matrix(shape, pts)
        elem = dist.argmin(axis=1)
        code = clamp[np.arange(pts.shape[0]), elem]
        feet[lo:lo + block] = _element_feet(shape, pts, elem, code)
    return feet


def ball_nearest_feet(ball, points):
    """The nearest point of a ball's sphere: the point's ray from the
    centre, scaled to the radius (the centre maps to itself)."""
    rel = points - ball.center
    rho = np.linalg.norm(rel, axis=1, keepdims=True)
    return ball.center + ball.radius * rel / np.where(rho > 0.0, rho, 1.0)


def point_arc_distance(points, center, a0, sweep, radius):
    """Distances from points (n, 2) to one CCW circular arc; off the
    sector, and at the centre, the distance to the nearer end point."""
    rel = points - center
    r = np.linalg.norm(rel, axis=1)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    local = (ang - a0) % (2.0 * np.pi)
    on_arc = (local <= sweep) & (r > 1e-300)
    e0 = center + radius * np.array([math.cos(a0), math.sin(a0)])
    e1 = center + radius * np.array([math.cos(a0 + sweep),
                                     math.sin(a0 + sweep)])
    d0 = np.linalg.norm(points - e0, axis=1)
    d1 = np.linalg.norm(points - e1, axis=1)
    return np.where(on_arc, np.abs(r - radius), np.where(d0 <= d1, d0, d1))


def boundary_distance_2d(shape, points):
    """2D polytope or offset boundary distance: all segments in one matrix,
    then one arc at a time."""
    if isinstance(shape, OffsetBody):
        (seg_a, seg_b, _), arcs = shape.elements()
    else:
        (seg_a, seg_b), arcs = shape.edges(), []
    best = point_segment_distance(points, seg_a, seg_b)[0].min(axis=1)
    for center, a0, sweep in arcs:
        best = np.minimum(best, point_arc_distance(points, center, a0, sweep,
                                                   shape.epsilon))
    return best


def plane_distance(x, q):
    """Distance of two 2D points as geometry._plane_norm takes it: the
    square root of explicit products (on float64 scalars ** 2 rounds
    differently)."""
    ex, ey = x[0] - q[0], x[1] - q[1]
    return math.sqrt(ex * ex + ey * ey)


class Segment:
    """One polygon edge or pushed offset edge, queried one point at a time."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.d = self.b - self.a

    def query(self, x):
        """(distance, foot, clamp code) of one point, in the order of
        operations of geometry._segment_distances: t = (wx dx + wy dy) /
        (dx dx + dy dy) clipped to [0, 1], the foot a + t d, also at t = 1
        (so it need not be b), and its plane_distance."""
        (ax, ay), (dx, dy) = self.a, self.d
        t = ((x[0] - ax) * dx + (x[1] - ay) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        foot = self.a + t * self.d
        return plane_distance(x, foot), foot, int(t == 1.0) - int(t == 0.0)


class Arc:
    """CCW circular arc from angle a0 through sweep, radius r about center,
    queried one point at a time."""

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
        """(distance, foot, clamp code) of one point, in the order of
        operations of geometry._arc_distances: on the sector the radial
        foot, else the nearer end, e0 on a tie.  At the centre every arc
        point is equidistant, and the foot is the nearer end too."""
        rel = x - self.center
        rho = math.sqrt(rel[0] * rel[0] + rel[1] * rel[1])
        local = (math.atan2(rel[1], rel[0]) - self.a0) % (2.0 * math.pi)
        if local <= self.sweep and rho > 1e-300:
            return abs(rho - self.r), self.center + self.r * rel / rho, 0
        d0, d1 = plane_distance(x, self.e0), plane_distance(x, self.e1)
        if d0 <= d1:
            return d0, self.e0.copy(), -1
        return d1, self.e1.copy(), +1


def polytope_cycle(poly):
    """The edge cycle of a 2D polytope, one Segment per edge."""
    a, b = poly.edges()
    return [Segment(a[i], b[i]) for i in range(a.shape[0])]


def offset_cycle(body):
    """The element cycle of a 2D offset: arc i, then pushed edge i."""
    (seg_a, seg_b, _), arcs = body.elements()
    cycle = []
    for i in range(seg_a.shape[0]):
        center, a0, sweep = arcs[i]
        cycle.append(Arc(center, a0, sweep, body.epsilon))
        cycle.append(Segment(seg_a[i], seg_b[i]))
    return cycle


def cycle_project(cycle, x, tau_multi, diam):
    """Distance and deduplicated nearest feet of one point over an element
    cycle, one element query at a time."""
    n = len(cycle)
    results = [el.query(x) for el in cycle]
    d_opt = min(r[0] for r in results)
    eq_tol = 1e-12 * max(1.0, diam)
    cands = [k for k in range(n) if results[k][0] <= d_opt + tau_multi]
    feet = []
    for k in cands:
        d, foot, clamp = results[k]
        if clamp != 0:
            nb = (k + 1) % n if clamp > 0 else (k - 1) % n
            if results[nb][0] < d - eq_tol:
                continue  # boundary distance keeps falling past the junction
        feet.append(foot)
    return d_opt, dedupe(np.array(feet), 1e-9 * max(1.0, diam))


def element_query_many(el, pts):
    """Distances and clamp codes of many points on one cycle element."""
    if isinstance(el, Segment):
        L2 = float(el.d @ el.d)
        t = (pts - el.a) @ el.d / L2
        feet = el.a + np.clip(t, 0.0, 1.0)[:, None] * el.d
        clamp = np.zeros(pts.shape[0], dtype=np.int8)
        clamp[t <= 0.0] = -1
        clamp[t >= 1.0] = +1
        return np.linalg.norm(pts - feet, axis=1), clamp
    rel = pts - el.center
    rho = np.linalg.norm(rel, axis=1)
    local = (np.arctan2(rel[:, 1], rel[:, 0]) - el.a0) % (2.0 * np.pi)
    on = (local <= el.sweep) & (rho > 1e-300)
    d0 = np.linalg.norm(pts - el.e0, axis=1)
    d1 = np.linalg.norm(pts - el.e1, axis=1)
    dist = np.where(on, np.abs(rho - el.r), np.minimum(d0, d1))
    clamp = np.where(on, 0, np.where(d0 <= d1, -1, +1)).astype(np.int8)
    return dist, clamp


def cycle_query_many(cycle, pts):
    """Stacked per-element distances and clamp codes, one element at a
    time: (dist (n, E), clamp (n, E))."""
    dist = np.empty((pts.shape[0], len(cycle)))
    clamp = np.empty((pts.shape[0], len(cycle)), dtype=np.int8)
    for k, el in enumerate(cycle):
        dist[:, k], clamp[:, k] = element_query_many(el, pts)
    return dist, clamp


def detect_cycle(cycle, diam, pts, dK, excluded, tau_multi, shape=None):
    """Exact-shape multiproj flags, resolving candidate rows one by one."""
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
        dist, clamp = cycle_query_many(cycle, sub)
        d_opt = dist.min(axis=1)
        cand = dist <= (d_opt + tau_multi)[:, None]
        nb_dist = np.where(clamp > 0, np.roll(dist, -1, axis=1),
                           np.roll(dist, +1, axis=1))
        kept = cand & ~((clamp != 0) & (nb_dist < dist - eq_tol))
        multi = active & (kept.sum(axis=1) >= 2)
        for i in np.nonzero(multi)[0]:
            feet = []
            for k in np.nonzero(kept[i])[0]:
                _, foot, _ = cycle[k].query(sub[i])
                feet.append(foot)
            reps = dedupe(np.array(feet), dd_tol)
            if reps.shape[0] >= 2 and max_pairwise(reps) > tau_multi:
                flags[lo + i] = True
        if shape is not None:
            _, arcs = shape.elements()
            for center, _, sweep in arcs:
                onc = np.linalg.norm(sub - center, axis=1) <= eq_tol
                chord = 2.0 * shape.epsilon * math.sin(
                    min(0.5 * sweep, 0.5 * math.pi))
                if chord > tau_multi:
                    flags[lo:lo + sub.shape[0]][onc & active] = True
    return flags


def _merge_run_labels(run_pts, link):
    """Union-find over candidate runs, linking runs whose closest points
    come within the linking distance."""
    m = len(run_pts)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    lk2 = link * link
    for i in range(m):
        for j in range(i + 1, m):
            if find(i) == find(j):
                continue
            d2 = ((run_pts[i][:, None, :] - run_pts[j][None, :, :]) ** 2
                  ).sum(axis=2)
            if d2.min() <= lk2:
                parent[find(j)] = find(i)
    return [find(i) for i in range(m)]


def detect_sampled(surface, pts, dK, excluded, tau_multi):
    """Sampled-surface multiproj flags, resolving candidate rows one by one."""
    tree = surface.tree()
    n = pts.shape[0]
    flags = np.zeros(n, dtype=bool)
    active = np.nonzero(~excluded)[0]
    if active.size == 0:
        return flags
    link = 3.0 * surface.spacing
    gap = 3
    guard = 0.5 * surface.diameter()
    n_samp = surface.points.shape[0]
    chunk = 16384
    for lo in range(0, active.size, chunk):
        rows = active[lo:lo + chunk]
        idx_lists = tree.query_ball_point(pts[rows], dK[rows] + tau_multi)
        for row, idx in zip(rows, idx_lists):
            if len(idx) <= 1:
                continue
            idx = np.sort(np.asarray(idx))
            cand = surface.points[idx]
            span = np.linalg.norm(cand.max(axis=0) - cand.min(axis=0))
            if span <= tau_multi:
                continue  # spread cannot exceed the candidate bounding box
            breaks = np.nonzero(np.diff(idx) > gap)[0]
            runs = np.split(np.arange(idx.size), breaks + 1)
            if surface.closed and len(runs) > 1 \
                    and idx[0] + n_samp - idx[-1] <= gap:
                runs[0] = np.concatenate([runs[-1], runs[0]])
                runs.pop()
            if len(runs) == 1:
                if span > guard:
                    flags[row] = True  # single wrap-around run: continuum tie
                continue
            labels = _merge_run_labels([cand[r] for r in runs], link)
            groups = {}
            for r, lab in zip(runs, labels):
                groups.setdefault(lab, []).append(r)
            if len(groups) == 1:
                if span > guard:
                    flags[row] = True
                continue
            cd = np.linalg.norm(cand - pts[row], axis=1)
            reps = []
            for members in groups.values():
                pos = np.concatenate(members)
                reps.append(cand[pos[np.argmin(cd[pos])]])
            if max_pairwise(np.array(reps)) > tau_multi:
                flags[row] = True
    return flags


def connected_components(n_nodes, heads, tails):
    """Component label of each node of the undirected graph whose edges
    join heads[k] and tails[k], by scipy's csgraph, which
    ``projection._components`` replaced: the labels number the components
    in the order of their smallest nodes."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components as label

    graph = coo_matrix((np.ones(len(heads)), (heads, tails)),
                       shape=(n_nodes, n_nodes))
    return label(graph, directed=False)[1]


def link_clusters(points, link):
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


def project_sampled(surface, x, tau_multi):
    """(distance, nearest, spread) of one point on a sampled surface, by
    connectivity clustering of its candidates at 3x the spacing."""
    tree = surface.tree()
    d_min, _ = tree.query(x)
    d_min = float(d_min)
    idx = tree.query_ball_point(x, d_min + tau_multi)
    cand = surface.points[idx]
    cand_d = np.linalg.norm(cand - x, axis=1)
    clusters = link_clusters(cand, 3.0 * surface.spacing)
    reps = np.array([cand[min(members, key=lambda i: cand_d[i])]
                     for members in clusters])
    if len(clusters) == 1:
        extent = max_pairwise(cand)
        if extent > 0.5 * surface.diameter():
            return d_min, cand[np.argsort(cand_d)[:8]], extent
        return d_min, reps, 0.0
    return d_min, reps, max_pairwise(reps)


def _scalar_distance_fn(shape):
    """One-point boundary distance minus the sampling slack, and diameter."""
    if isinstance(shape, SampledSurface):
        tree = shape.tree()

        def fn(p):
            d, _ = tree.query(np.atleast_2d(p))
            return float(d[0]) - 0.5 * shape.spacing

        return fn, shape.diameter()
    if isinstance(shape, GraphHypersurface):
        raise InnerBallError(
            "graphs need a sampled surface; pass shape.boundary_sample(...)")

    def fn(p):
        return float(shape.boundary_distance(np.atleast_2d(p))[0])

    return fn, shape.diameter()


def default_tau_ball(shape):
    """The default inner-ball slack: TAU_BALL_FACTOR x diameter, plus half
    the spacing on a sampling."""
    tau = TAU_BALL_FACTOR * shape.diameter()
    if isinstance(shape, SampledSurface):
        tau += 0.5 * shape.spacing
    return tau


def inner_ball_radius(shape, a, nu, r_max, tau_ball=None):
    """Inner-ball radius at one boundary point by scalar bisection."""
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if r_max <= 0.0:
        raise InnerBallError("r_max must be positive")
    dist, diam = _scalar_distance_fn(shape)
    if tau_ball is None:
        tau_ball = default_tau_ball(shape)
    on_tol = 0.5 * shape.spacing if isinstance(shape, SampledSurface) \
        else 1e-9 * max(1.0, diam)
    if dist(a) > on_tol:
        raise InnerBallError("query point is not on the boundary")
    contains = getattr(shape, "contains", None)

    def fits(r):
        c = a + r * nu
        if contains is not None and not contains(c):
            return False
        return dist(c) >= r - tau_ball

    if fits(r_max):
        return float(r_max)
    lo, hi = 0.0, float(r_max)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-12 * diam, 1e-3 * tau_ball):
            break
    return float(lo)


def inner_ball_radii(shape, surface, r_max, tau_ball=None, measured=None):
    """Profile radii, one scalar bisection per sample of ``surface``."""
    measured = shape if measured is None else measured
    if tau_ball is None:
        tau_ball = default_tau_ball(measured)
    return np.array([
        inner_ball_radius(measured, surface.points[i], surface.normals[i],
                          r_max, tau_ball=tau_ball)
        for i in range(surface.points.shape[0])])


def slack_flags(shape, pts, tau_multi):
    """Multiproj flags of a convex polytope or offset body, node by node.

    Inside K = {n_k . x <= c_k}, with slacks s_k = c_k - n_k . x and
    d = min s_k, the nearest feet are x + s_k n_k for the facets with
    s_k <= d + tau_multi whose foot lies in K, moved out to
    x + (s_k + epsilon) n_k on an offset boundary.  A point outside K has a
    single nearest point (Motzkin).  A node is flagged when its feet spread
    over more than tau_multi.  No band is excluded.
    """
    base, eps = (shape.base, shape.epsilon) if isinstance(shape, OffsetBody) \
        else (shape, 0.0)
    normals, offsets = base.normals, base.offsets
    tol = 1e-12 * max(1.0, base.diameter())
    flags = np.zeros(pts.shape[0], dtype=bool)
    for i, x in enumerate(pts):
        s = offsets - normals @ x
        d = s.min()
        if d < -tol:
            continue
        feet = [x + (s[k] + eps) * normals[k]
                for k in np.flatnonzero(s <= d + tau_multi)
                if np.all(normals @ (x + s[k] * normals[k]) <= offsets + tol)]
        flags[i] = max_pairwise(np.array(feet)) > tau_multi
    return flags


def one_sided_cosines(u, h):
    """(ok, safe, min_cos) from the full (n, 2^dim, 2^dim) cosine matrix:
    the 2^dim one-sided gradients stacked as an (n, 2^dim, dim) array,
    normalised by ``np.linalg.norm`` and compared all against all by one
    einsum."""
    dims = u.shape
    dim = u.ndim
    fwd, bwd = [], []
    for ax in range(dim):
        f = np.full(dims, np.nan)
        b = np.full(dims, np.nan)
        sl = [slice(None)] * dim
        sr = [slice(None)] * dim
        sl[ax] = slice(0, -1)
        sr[ax] = slice(1, None)
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
    unit = np.where(safe[..., None],
                    grads / np.where(safe, norms, 1.0)[..., None], 0.0)
    min_cos = np.einsum("...id,...jd->...ij", unit, unit).min(axis=(-1, -2))
    return ok, safe.all(axis=-1), min_cos


def detect_gradjump(fld, theta_deg):
    """Gradient-jump (flags, excluded) from ``one_sided_cosines``."""
    u = fld.values
    h = float(fld.grid.spacing)
    ok, safe, min_cos = one_sided_cosines(u, h)
    jump = ok & safe & (min_cos < math.cos(math.radians(theta_deg)))
    excluded = ~ok | (u <= 2.0 * h) | ~np.isfinite(u)
    return jump & ~excluded, excluded
