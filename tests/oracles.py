"""Reference implementations kept as bit-for-bit oracles.

These are the per-node loops that ``geometry._polytope_boundary_distance_3d``
and ``eikonal.fast_march`` replaced.  The production code must return
exactly the same arrays (``np.array_equal``), because it keeps the same
arithmetic and the same acceptance order.
"""

import heapq
import math

import numpy as np

from sigma_eikonal.distance import ScalarField
from sigma_eikonal.eikonal import ACCEPT_SLACK, _solve_update


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
