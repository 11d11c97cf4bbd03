"""Reference implementations kept as bit-for-bit oracles.

These are the per-node loops that ``geometry._polytope_boundary_distance_3d``,
``eikonal.fast_march``, the row resolution of ``singular._detect_cycle``
and ``singular._detect_sampled``, the inner-ball bisection and the vertex
dedupe of ``ConvexPolytope`` replaced.  The production code must return
exactly the same arrays (``np.array_equal``): the kernel and the march keep
the same arithmetic and the same acceptance order, and the batched row
resolution and bisection make the same decisions.
"""

import heapq
import math

import numpy as np
from scipy.spatial import HalfspaceIntersection

from sigma_eikonal.distance import ScalarField, _bulk_boundary_distance
from sigma_eikonal.eikonal import ACCEPT_SLACK, _solve_update
from sigma_eikonal.geometry import GraphHypersurface, SampledSurface
from sigma_eikonal.innerball import BISECT_STEPS, InnerBallError, _default_tau
from sigma_eikonal.projection import _cycle_query_many, _dedupe, _max_pairwise


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
        dist, clamp = _cycle_query_many(cycle, sub)
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
            reps = _dedupe(np.array(feet), dd_tol)
            if reps.shape[0] >= 2 and _max_pairwise(reps) > tau_multi:
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
            if _max_pairwise(np.array(reps)) > tau_multi:
                flags[row] = True
    return flags


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
        return float(_bulk_boundary_distance(shape, np.atleast_2d(p))[0])

    return fn, shape.diameter()


def inner_ball_radius(shape, a, nu, r_max, tau_ball=None):
    """Inner-ball radius at one boundary point by scalar bisection."""
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if r_max <= 0.0:
        raise InnerBallError("r_max must be positive")
    dist, diam = _scalar_distance_fn(shape)
    if tau_ball is None:
        tau_ball = _default_tau(shape, diam)
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
        tau_ball = _default_tau(measured, measured.diameter())
    return np.array([
        inner_ball_radius(measured, surface.points[i], surface.normals[i],
                          r_max, tau_ball=tau_ball)
        for i in range(surface.points.shape[0])])
