"""Reference implementations kept as bit-for-bit oracles, and one closed form.

These are the per-node loops that ``geometry._polytope_boundary_distance_3d``,
``eikonal.fast_march``, the row resolution of ``singular._detect_cycle``
and ``singular._detect_sampled``, the inner-ball bisection and the vertex
dedupe of ``ConvexPolytope`` replaced, and the per-element loops that
``geometry._element_distance_blocks`` and ``geometry._element_query``
replaced: the 2D boundary distance with one arc at a time, the element
queries of ``_detect_cycle``, and the scalar element objects (``Segment``,
``Arc``) with the one-point projection over their cycle
(``cycle_project``, which ``projection._cycle_rows`` replaced).  The
(n, m, 2) einsum and norm forms of the 2D kernels that the coordinate-plane
``geometry._segment_distances`` and ``geometry._arc_distances`` replaced
are ``point_segment_distance`` and ``arc_distance_matrix``, with their
clamp codes; ``element_distance_matrix`` lays them out in cycle order.
``dedupe`` and ``max_pairwise`` are the one-row forms of
``projection._spreads``.  The production code must return
exactly the same arrays (``np.array_equal``): the kernels and the march
keep the same arithmetic and the same acceptance order, and the batched
row resolution and bisection make the same decisions.

``project_sampled`` is the one-point sampled projection that
``projection._sampled_rows`` replaced: single-linkage clusters of all
candidates by a pairwise union-find, and a continuum tie when one cluster
spans more than half the surface diameter.  It gives the same distance;
its nearest set differs only at continuum ties.

``slack_flags`` is not a replaced loop: it decides the multiproj flags of
a convex polytope or offset from its facet normals and offsets alone, with
neither element cycles nor triangles; ``box_boundary_distance`` is the
closed form of a box's distance, independent of its polytope.
"""

import heapq
import math

import numpy as np
from scipy.spatial import HalfspaceIntersection

from sigma_eikonal.distance import ScalarField
from sigma_eikonal.eikonal import ACCEPT_SLACK, _solve_update
from sigma_eikonal.geometry import GraphHypersurface, OffsetBody, SampledSurface
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


def box_boundary_distance(box, points):
    """Closed-form distance to the boundary of an origin-centred box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    q = np.abs(points) - box.extents
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return np.abs(outside + inside)


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


def polytope_boundary_distance_3d(poly, points):
    """Boundary distance of a 3D polytope, one point at a time."""
    hull = poly.hull()
    verts = hull.points
    tri_a = verts[hull.simplices[:, 0]]
    tri_b = verts[hull.simplices[:, 1]]
    tri_c = verts[hull.simplices[:, 2]]
    out = np.empty(points.shape[0])
    for i, p in enumerate(points):
        feet = closest_point_triangles_one(p, tri_a, tri_b, tri_c)
        out[i] = np.min(np.linalg.norm(feet - p, axis=1))
    return out


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
    arc_distance_matrix over all points at once."""
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


class Segment:
    """One polygon edge or pushed offset edge, queried one point at a time."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.d = self.b - self.a

    def query(self, x):
        """(distance, foot, clamp code) of one point."""
        L2 = float(self.d @ self.d)
        t = float((x - self.a) @ self.d) / L2
        if t <= 0.0:
            return float(np.linalg.norm(x - self.a)), self.a.copy(), -1
        if t >= 1.0:
            return float(np.linalg.norm(x - self.b)), self.b.copy(), +1
        foot = self.a + t * self.d
        return float(np.linalg.norm(x - foot)), foot, 0


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
        """(distance, foot, clamp code) of one point; at the centre every
        arc point is equidistant and the foot is e0."""
        rel = x - self.center
        rho = float(np.linalg.norm(rel))
        if rho <= 1e-300:
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
