"""Shape catalog: convex polytopes, offset bodies, rough graphs, and boundary samplings.

Every shape in this module describes a compact hypersurface K in R^2 or R^3
together with the open region it bounds.  Shapes expose a small common
interface used by the field and detection modules:

    dim                 ambient dimension (2 or 3)
    is_convex           whether the enclosed body is convex
    diameter()          diameter of the body (graphs: of the sampling window)
    bbox()              axis-aligned bounding box (lo, hi)
    contains(points)    membership in the closed enclosed region
    boundary_distance(points)
                        Euclidean distance to the hypersurface, vectorized
                        (a graph raises: measure its boundary_sample)
    boundary_sample(spacing)
                        SampledSurface of points with inner normals
    to_spec()           JSON-serializable description, round-trips exactly

Conventions: polytope facet normals point outward and are unit length;
sampled inner normals point into the enclosed region.  Offset bodies expand
the base polytope by a fixed radius, which rounds every vertex into a
circular arc (2D) or spherical patch (3D).
"""

from __future__ import annotations

import collections
import json
import math

import numpy as np

UNIT_VECTOR_TOL = 1e-12
ON_SURFACE_TOL_FACTOR = 1e-9    # boundary membership tolerance, times diameter
MIN_SPACING_FACTOR = 1e-6       # reject boundary samplings finer than this, times diameter
OPEN_GAP_TOL = 1e-6             # 2D normals leaving a gap within this of pi are unbounded
PARALLEL_SINE = 2.0 ** -52      # lines (2D) or planes (3D) at most this sine apart are parallel


class GeometryError(ValueError):
    """Invalid shape construction or sampling request."""


def _require(values, error, message, positive=False):
    """Raise error(message) unless every entry of values is finite and,
    with positive, above zero: tested as not (x > 0), so NaN fails too."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all() or (positive and not (values > 0).all()):
        raise error(message)


class _Region:
    """A shape that encloses a region: contains(points) is membership in
    the closed region, from the shape's _inside on (k, dim) rows, with the
    shape's fixed tolerance.  Rows give a boolean array, one point (a 1-D
    array) a bool."""

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        ok = self._inside(np.atleast_2d(points))
        return bool(ok[0]) if points.ndim == 1 else ok


# ---------------------------------------------------------------------------
# sampled surfaces
# ---------------------------------------------------------------------------

class SampledSurface:
    """Discrete boundary: points and inner unit normals.

    ``points`` has shape (N, dim); ``normals`` matches and holds unit vectors
    pointing into the enclosed region.  ``spacing`` records the target sample
    spacing used to build the chain, which downstream tolerances scale with.
    """

    def __init__(self, points, normals, spacing, closed=True):
        points = np.asarray(points, dtype=float)
        normals = np.asarray(normals, dtype=float)
        if points.ndim != 2 or points.shape[1] not in (2, 3):
            raise GeometryError("sample points must be (N, 2) or (N, 3)")
        _require(points, GeometryError, "sample points must be finite")
        if normals.shape != points.shape:
            raise GeometryError("normals must match points shape")
        _require(normals, GeometryError, "inner normals must be finite")
        _require(spacing, GeometryError,
                 "sample spacing must be finite and positive", positive=True)
        norms = np.linalg.norm(normals, axis=1)
        if points.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise GeometryError("inner normals must be unit length")
        self.points = points
        self.normals = normals
        self.spacing = float(spacing)
        self.closed = bool(closed)
        self._tree = self._diameter = None

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def tree(self):
        # on a dense ordered chain, compacted node boxes make nearest
        # queries about 8x slower (143 vs 17 us on a 165k-sample rough graph)
        if self._tree is None:
            from scipy.spatial import cKDTree   # about 12 MiB: only for a tree
            self._tree = cKDTree(self.points, compact_nodes=False)
        return self._tree

    def diameter(self):
        # kept: the sampled resolver reads it once per fetch block
        if self._diameter is None:
            lo, hi = self.bbox()
            self._diameter = float(np.linalg.norm(hi - lo))
        return self._diameter

    def bbox(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d, _ = self.tree().query(points)
        return d


# ---------------------------------------------------------------------------
# convex polytopes
# ---------------------------------------------------------------------------

def _direction_net(n):
    """n unit directions on a Fibonacci sphere (3D ball and cap samples)."""
    k = np.arange(n, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * k
    return np.column_stack([
        np.cos(theta) * np.sin(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(phi),
    ])


def _polygon_ring(normals, offsets):
    """Vertices of the 2D polygon {x : n_i . x <= c_i}, counterclockwise,
    by the sorted half-plane ring (de Berg et al., Computational Geometry,
    ch. 4).

    The normals, sorted by angle, bound the polygon exactly when every
    cyclic gap between them is below pi, less OPEN_GAP_TOL: across a gap
    of pi - g the lines meet about 2 / g inradii out, where the merge
    below would swallow the real edges.  Of parallel lines the tighter is
    kept, and one deque pass drops the rest that bound nothing.  Vertex k
    is where lines k and k + 1 meet, from line k's foot along its tangent;
    every dot product is a*b + c*d, so normals turned by 90 degrees give
    vertices turned by 90 degrees bit for bit.  An edge within 1e-9 x
    max(1, largest coordinate) drops its line, and the lines on either
    side meet.  The ring starts at the vertex of least angle about the
    vertex mean.  Fewer than three lines, or no positive area, is an empty
    interior.
    """
    # + 0.0 turns a -0.0 y into +0.0, so (-1, -0) sorts at pi, not -pi
    ang = np.arctan2(normals[:, 1] + 0.0, normals[:, 0])
    order = np.lexsort((offsets, ang))
    gaps = np.diff(ang[order], append=ang[order[0]] + 2.0 * np.pi)
    if gaps.max() >= np.pi - OPEN_GAP_TOL:
        raise GeometryError(
            "polytope is unbounded: the facet normals leave an open "
            "direction")

    def meet(p, q):
        (px, py, pc), (qx, qy, qc) = p, q
        t = (qc - pc * (px * qx + py * qy)) / (px * qy - py * qx)
        return pc * px - t * py, pc * py + t * px

    def out(line, v):
        return line[0] * v[0] + line[1] * v[1] > line[2]

    ring = collections.deque()
    for line in zip(*normals[order].T.tolist(), offsets[order].tolist()):
        if ring and ring[-1][0] * line[1] - ring[-1][1] * line[0] \
                <= PARALLEL_SINE:
            if line[2] >= ring[-1][2]:
                continue
            ring.pop()
        while len(ring) > 1 and out(line, meet(ring[-2], ring[-1])):
            ring.pop()
        while len(ring) > 1 and out(line, meet(ring[0], ring[1])):
            ring.popleft()
        ring.append(line)
    while len(ring) > 2 and out(ring[0], meet(ring[-2], ring[-1])):
        ring.pop()
    while len(ring) > 2 and out(ring[-1], meet(ring[0], ring[1])):
        ring.popleft()

    def corners(lines):
        if len(lines) < 3:
            raise GeometryError("halfspaces have empty interior")
        return np.array([meet(p, q)
                         for p, q in zip(lines, lines[1:] + lines[:1])])

    ring = [*ring]
    verts = corners(ring)
    tol = 1e-9 * max(1.0, float(np.abs(verts).max()))
    # line k's edge runs from vertex k - 1 to vertex k
    short = np.linalg.norm(verts - np.roll(verts, 1, axis=0), axis=1) <= tol
    if short.any():
        verts = corners([line for line, s in zip(ring, short) if not s])
    x, y = verts[:, 0], verts[:, 1]
    if not np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0.0:
        raise GeometryError("halfspaces have empty interior")
    ref = verts.mean(axis=0)
    return np.roll(verts, -int(np.argmin(np.arctan2(y - ref[1], x - ref[0]))),
                   axis=0)


def _first_rows(mask):
    """First index of each distinct row of a bool matrix, packed to bytes:
    each row compares as one string."""
    packed = np.ascontiguousarray(np.packbits(mask, axis=1))
    return np.unique(packed.view(f"S{packed.shape[1]}"), return_index=True)[1]


def _polytope_vertices(normals, offsets):
    """Vertices of the 3D polytope {x : n_i . x <= c_i} and the (vertex,
    plane) mask of the planes within tol of each, from the planes alone.

    The other planes clip the line of each pair i < j of planes more than
    PARALLEL_SINE apart (one within 1e-9 of parallel clips none of it, or
    all if more than tol outside).  An end of a nonempty interval is the
    meet of a triple, v = (c_i n_j x n_k + c_j n_k x n_i + c_k n_i x n_j)
    / (n_i . n_j x n_k): a vertex if no plane has it more than tol = 1e-9
    x max(1, largest |coordinate|) outside.  Meets with one tight set
    merge into the first.  Pairs run through _row_blocks at m planes
    each.  An open end, an edge leaving a vertex that meets no other
    plane, or no two planes meeting is unbounded; no vertex, or a plane
    tight at every vertex (a flat body), is an empty interior.
    """
    m = normals.shape[0]
    first, second = np.triu_indices(m, 1)
    line = np.cross(normals[first], normals[second])
    size = np.linalg.norm(line, axis=1)
    meet = size > PARALLEL_SINE
    if not meet.any():
        raise GeometryError(
            "polytope is unbounded: no two facet planes meet in a line")
    first, second, size = first[meet], second[meet], size[meet]
    line, parts = line[meet] / size[:, None], []
    for rows in _row_blocks(first.size, m):
        i, j, u = first[rows], second[rows], line[rows]
        # the line's point nearest the origin, and where each plane cuts it
        foot = (offsets[i, None] * np.cross(normals[j], u) + offsets[j, None]
                * np.cross(u, normals[i])) / size[rows, None]
        rate, room = u @ normals.T, offsets - foot @ normals.T
        tol = 1e-9 * np.maximum(1.0, np.abs(foot).max(axis=1))
        along = np.abs(rate) <= 1e-9
        pair = np.arange(i.size)
        along[pair, i] = along[pair, j] = True
        t = room / np.where(along, 1.0, rate)
        t_hi = np.where(along | (rate < 0.0), np.inf, t)
        t_lo = np.where(along | (rate > 0.0), -np.inf, t)
        hi, lo = t_hi.argmin(axis=1), t_lo.argmax(axis=1)
        span = t_hi[pair, hi] - t_lo[pair, lo]
        live = ~(along & (room < -tol[:, None])).any(axis=1) & (span >= -tol)
        if (live & np.isinf(span)).any():
            raise GeometryError("polytope is unbounded: an edge leaving a "
                                "vertex meets no other facet plane")
        for k in (lo, hi):
            triple = np.column_stack([i, j, k])[live]
            n = normals[triple]
            # n_j x n_k, n_k x n_i and n_i x n_j of each triple
            cross = np.cross(np.roll(n, -1, axis=1), np.roll(n, -2, axis=1))
            v = np.einsum("tp,tpd->td", offsets[triple], cross) \
                / np.vecdot(n[:, 0], cross[:, 0])[:, None]
            slack = v @ normals.T - offsets
            v_tol = 1e-9 * np.maximum(1.0, np.abs(v).max(axis=1))[:, None]
            ok = (slack <= v_tol).all(axis=1)
            parts.append((v[ok], np.abs(slack[ok]) <= v_tol[ok]))
    verts, tight = map(np.concatenate, zip(*parts))
    keep = np.sort(_first_rows(tight))
    verts, tight = verts[keep], tight[keep]
    if not verts.shape[0] or tight.all(axis=0).any():
        raise GeometryError("halfspaces have empty interior")
    return verts, tight


class ConvexPolytope(_Region):
    """Bounded intersection of halfspaces {x : n_i . x <= c_i} with unit n_i.

    Vertices come from the planes alone, once, with no interior point: in
    2D from the half-plane ring (_polygon_ring), counterclockwise; in 3D
    from the plane triples (_polytope_vertices), whose facets triangles()
    fans (_Triangles).  The center and the inradius are the given
    _inball, or else the LP's, solved only when inradius() or
    chebyshev_center is read.
    """

    is_convex = True
    kind = "polytope"

    def __init__(self, normals, offsets, _spec=None, _inball=None):
        normals = np.array(normals, dtype=float)
        offsets = np.array(offsets, dtype=float)
        if normals.ndim != 2 or normals.shape[1] not in (2, 3):
            raise GeometryError("normals must be (m, 2) or (m, 3)")
        if offsets.shape != (normals.shape[0],):
            raise GeometryError("offsets must be one per halfspace")
        _require(np.append(normals, offsets), GeometryError,
                 "facet normals and offsets must be finite")
        self.dim = normals.shape[1]
        if normals.shape[0] < self.dim + 1:
            raise GeometryError(
                f"{normals.shape[0]} facets cannot bound a {self.dim}D body "
                f"(need at least {self.dim + 1})")
        lens = np.linalg.norm(normals, axis=1)
        if np.max(np.abs(lens - 1.0)) > UNIT_VECTOR_TOL:
            raise GeometryError("facet normals must be unit length within 1e-12")

        self.normals = normals
        self.offsets = offsets
        self._spec = _spec
        # _inball: a known (center, radius) of the largest inscribed ball
        self._inball = _inball
        if self.dim == 2:
            self.vertices = _polygon_ring(normals, offsets)
        else:
            self.vertices, self._tight = _polytope_vertices(normals, offsets)
        # every pairwise distance at once, summed in axis order as
        # np.linalg.norm(axis=1) sums them
        diff = self.vertices[:, None] - self.vertices[None]
        self._diameter = float(np.sqrt((diff ** 2).sum(-1)).max())
        self._triangles = None
        for arr in (self.normals, self.offsets, self.vertices):
            arr.flags.writeable = False
        if self.dim == 2:
            self._cycle = _Cycle(*self.edges())

    # -- construction helpers ------------------------------------------------

    @property
    def chebyshev_center(self):
        return self._ball()[0]

    def _ball(self):
        if self._inball is None:
            self._inball = self._chebyshev()
        return self._inball

    def _chebyshev(self):
        # imported on first use: scipy.optimize adds about 11 MiB of resident
        # memory to every process that would import it with the package, and
        # the experiments pass in their polytopes' known inner balls
        from scipy.optimize import linprog

        m, d = self.normals.shape
        # maximize r subject to n_i . c + r <= c_i
        A = np.hstack([self.normals, np.ones((m, 1))])
        obj = np.zeros(d + 1)
        obj[-1] = -1.0
        res = linprog(obj, A_ub=A, b_ub=self.offsets,
                      bounds=[(None, None)] * d + [(0, None)], method="highs")
        if not res.success:
            raise GeometryError(f"Chebyshev center LP failed: {res.message}")
        return res.x[:d].copy(), float(res.x[-1])

    def triangles(self):
        """The facet triangles as arrays (_Triangles: the 3D distance,
        projection and sampling kernel input), built once."""
        if self._triangles is None:
            self._triangles = _Triangles(self)
        return self._triangles

    # -- geometry queries -----------------------------------------------------

    def inradius(self):
        return self._ball()[1]

    def diameter(self):
        return self._diameter

    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def _inside(self, pts):
        tol = 1e-12 * max(1.0, self._diameter)
        inside = np.empty(pts.shape[0], dtype=bool)
        for rows in _row_blocks(pts.shape[0], self.normals.shape[0]):
            inside[rows] = np.all(pts[rows] @ self.normals.T
                                  <= self.offsets + tol, axis=1)
        return inside

    def edges(self):
        """(a, b) endpoint arrays of boundary edges (2D only)."""
        if self.dim != 2:
            raise GeometryError("edges() is 2D; use triangles() in 3D")
        v = self.vertices
        return v, np.roll(v, -1, axis=0)

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dim == 2:
            return _boundary_distance_2d(self, points)
        return _polytope_boundary_distance_3d(self, points)

    def perimeter(self):
        if self.dim != 2:
            raise GeometryError("perimeter is 2D")
        a, b = self.edges()
        return float(np.linalg.norm(b - a, axis=1).sum())

    def area(self):
        if self.dim != 2:
            raise GeometryError("area is 2D")
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return float(0.5 * np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    # -- sampling and serialization -------------------------------------------

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim == 2:
            pts, nrm = _sample_polygon(self.vertices, spacing)
        else:
            pts, nrm = map(np.vstack, _sample_triangles(self, spacing, 0.0))
        surf = SampledSurface(pts, nrm, spacing, closed=self.dim == 2)
        _check_on_surface(self, surf)
        return surf

    def describe(self):
        if self._spec is not None:
            return f"random_polytope(n={self._spec['n_facets']}, seed={self._spec['seed']}, dim={self.dim})"
        return f"polytope({self.normals.shape[0]} facets, dim={self.dim})"

    def to_spec(self):
        if self._spec is not None:
            return dict(self._spec)
        return {
            "kind": "polytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }

    def summary(self):
        return {
            "kind": self.describe(),
            "dim": self.dim,
            "facets": int(self.normals.shape[0]),
            "vertices": int(self.vertices.shape[0]),
            "inradius": self.inradius(),
            "diameter": self.diameter(),
        }


def make_random_polytope(n_facets, seed, dim=2):
    """Tangent polytope to the unit sphere at n_facets seeded uniform points.

    Each facet plane touches the unit sphere, so any bounded result contains
    the unit ball and has inradius exactly 1: the normals of a bounded body
    positively span, so no center other than the origin clears every facet
    by more than 1.  That ball is passed in, and no Chebyshev LP is solved.
    Sampling that leaves the body unbounded is rejected rather than silently
    resampled, keeping the map from (n_facets, seed) to shapes deterministic.
    """
    if dim not in (2, 3):
        raise GeometryError("dim must be 2 or 3")
    if n_facets < dim + 1:
        raise GeometryError(f"need at least {dim + 1} facets in {dim}D")
    rng = np.random.default_rng(seed)
    if dim == 2:
        t = rng.uniform(0.0, 2.0 * np.pi, n_facets)
        normals = np.column_stack([np.cos(t), np.sin(t)])
    else:
        normals = rng.normal(size=(n_facets, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.ones(n_facets)
    spec = {"kind": "random_polytope", "n_facets": int(n_facets),
            "seed": int(seed), "dim": int(dim)}
    return ConvexPolytope(normals, offsets, _spec=spec,
                          _inball=(np.zeros(dim), 1.0))


# ---------------------------------------------------------------------------
# offset bodies
# ---------------------------------------------------------------------------

class OffsetBody(_Region):
    """Outward expansion of a convex polytope by radius epsilon > 0.

    The boundary consists of the base facets pushed out by epsilon plus
    circular vertex arcs (2D) or cylindrical edge strips and spherical vertex
    caps (3D).  Membership is equivalent to base body distance <= epsilon.
    """

    is_convex = True
    kind = "offset"

    def __init__(self, base, epsilon):
        if not isinstance(base, ConvexPolytope):
            raise GeometryError("offset base must be a convex polytope")
        epsilon = float(epsilon)
        _require(epsilon, GeometryError,
                 "offset radius must be finite and positive", positive=True)
        self.base = base
        self.epsilon = epsilon
        self.dim = base.dim
        if self.dim == 2:
            self._segments, self._arcs = _offset_elements_2d(base, epsilon)
            self._cycle = _Cycle(*self._segments[:2], self._arcs, epsilon)

    def diameter(self):
        return self.base.diameter() + 2.0 * self.epsilon

    def inradius(self):
        return self.base.inradius() + self.epsilon

    def bbox(self):
        lo, hi = self.base.bbox()
        return lo - self.epsilon, hi + self.epsilon

    def _inside(self, pts):
        tol = 1e-12 * max(1.0, self.diameter())
        ok = self.base.contains(pts)
        # the base distance is at least the largest facet violation, so only
        # points within epsilon of the base's facet planes can be inside
        near = np.empty_like(ok)
        for rows in _row_blocks(pts.shape[0], self.base.normals.shape[0]):
            violation = (pts[rows] @ self.base.normals.T
                         - self.base.offsets).max(axis=1)
            near[rows] = violation <= self.epsilon + 2.0 * tol
        near &= ~ok
        ok[near] = self.base.boundary_distance(pts[near]) <= self.epsilon + tol
        return ok

    def elements(self):
        """Offset boundary elements: (segments, arcs); 2D only."""
        if self.dim != 2:
            raise GeometryError("explicit offset elements are 2D")
        return self._segments, self._arcs

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dim == 2:
            return _boundary_distance_2d(self, points)
        return self._from_base_distance(points,
                                        self.base.boundary_distance(points))

    def _from_base_distance(self, points, d_base):
        """3D: the distance at points from the base's distance d_base there,
        exact via the base projection branches."""
        inside = self.base.contains(points)
        return np.where(inside, d_base + self.epsilon,
                        np.abs(d_base - self.epsilon))

    def perimeter(self):
        if self.dim != 2:
            raise GeometryError("perimeter is 2D")
        return self.base.perimeter() + 2.0 * np.pi * self.epsilon

    def area(self):
        """Steiner formula: area + eps * perimeter + pi * eps^2 (2D)."""
        if self.dim != 2:
            raise GeometryError("area is 2D")
        e = self.epsilon
        return self.base.area() + e * self.base.perimeter() + np.pi * e * e

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim == 2:
            pts, nrm = _sample_offset_2d(self, spacing)
        else:
            pts, nrm = _sample_offset_3d(self, spacing)
        surf = SampledSurface(pts, nrm, spacing, closed=self.dim == 2)
        _check_on_surface(self, surf)
        return surf

    def describe(self):
        return f"offset({self.base.describe()}, eps={self.epsilon})"

    def to_spec(self):
        return {"kind": "offset", "base": self.base.to_spec(),
                "epsilon": self.epsilon}

    def summary(self):
        out = {
            "kind": self.describe(),
            "dim": self.dim,
            "facets": int(self.base.normals.shape[0]),
            "inradius": self.inradius(),
            "diameter": self.diameter(),
        }
        if self.dim == 2:
            out["perimeter"] = self.perimeter()
            out["area"] = self.area()
        return out


# ---------------------------------------------------------------------------
# primitives: ball, ellipse, box
# ---------------------------------------------------------------------------

class Ball(_Region):
    """Round ball; the boundary is a circle (2D) or sphere (3D)."""

    is_convex = True
    kind = "ball"

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if center.shape not in ((2,), (3,)):
            raise GeometryError("ball center must be 2D or 3D")
        _require(center, GeometryError, "ball center must be finite")
        _require(radius, GeometryError,
                 "ball radius must be finite and positive", positive=True)
        self.center = center
        self.radius = float(radius)
        self.dim = center.shape[0]

    def diameter(self):
        return 2.0 * self.radius

    def inradius(self):
        return self.radius

    def bbox(self):
        return self.center - self.radius, self.center + self.radius

    def _inside(self, pts):
        tol = 1e-12 * max(1.0, self.diameter())
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(np.linalg.norm(points - self.center, axis=1) - self.radius)

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim == 2:
            n = max(8, int(math.ceil(2.0 * np.pi * self.radius / spacing)))
            t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            outward = np.column_stack([np.cos(t), np.sin(t)])
        else:
            area = 4.0 * np.pi * self.radius ** 2
            n = max(32, int(math.ceil(area / spacing ** 2)))
            outward = _direction_net(n)
        surf = SampledSurface(self.center + self.radius * outward, -outward,
                              spacing, closed=self.dim == 2)
        _check_on_surface(self, surf)
        return surf

    def describe(self):
        center = tuple(float(v) for v in self.center)
        return f"ball(center={center}, r={self.radius})"

    def to_spec(self):
        return {"kind": "ball", "center": self.center.tolist(),
                "radius": self.radius}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "inradius": self.radius, "diameter": self.diameter()}


class Ellipse(_Region):
    """Origin-centered ellipse with positive semi-axes."""

    is_convex = True
    kind = "ellipse"
    dim = 2

    def __init__(self, semi_axes):
        semi_axes = np.asarray(semi_axes, dtype=float)
        if semi_axes.shape != (2,):
            raise GeometryError("semi_axes must be length 2")
        _require(semi_axes, GeometryError,
                 "semi-axes must be finite and positive", positive=True)
        self.semi_axes = semi_axes

    def diameter(self):
        return 2.0 * float(self.semi_axes.max())

    def inradius(self):
        return float(self.semi_axes.min())

    def bbox(self):
        return -self.semi_axes.copy(), self.semi_axes.copy()

    def _inside(self, pts):
        return np.sum((pts / self.semi_axes) ** 2, axis=1) <= 1.0 + 1e-12

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(points - _ellipse_feet(self, points)[0], axis=1)

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        a, b = self.semi_axes
        # oversample in parameter, then thin to roughly uniform arc length
        n_par = 16 * max(64, int(math.ceil(2.0 * np.pi * max(a, b) / spacing)))
        t = np.linspace(0.0, 2.0 * np.pi, n_par, endpoint=False)
        p = np.column_stack([a * np.cos(t), b * np.sin(t)])
        seg = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        total = arc[-1]
        n = max(8, int(math.ceil(total / spacing)))
        targets = np.linspace(0.0, total, n, endpoint=False)
        idx = np.searchsorted(arc, targets, side="right") - 1
        pts = p[np.clip(idx, 0, n_par - 1)]
        grad = pts / self.semi_axes ** 2
        outward = grad / np.linalg.norm(grad, axis=1, keepdims=True)
        surf = SampledSurface(pts, -outward, spacing, closed=True)
        _check_on_surface(self, surf)
        return surf

    def describe(self):
        return f"ellipse(semi_axes={tuple(float(v) for v in self.semi_axes)})"

    def to_spec(self):
        return {"kind": "ellipse", "semi_axes": self.semi_axes.tolist()}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "inradius": self.inradius(), "diameter": self.diameter()}


# each bracket of |t + B^2| spans a log ratio below 64 for points within
# 10^3 semi-axes of the centre, so its halvings end 2^-58 wide, relatively
ELLIPSE_BISECT_STEPS = 64
ELLIPSE_AXIS_TOL = 1e-14    # on the major axis below this, times its semi-axis


def _ellipse_feet(ellipse, pts, second=False):
    """Nearest foot of each point on an ellipse, and its second local minimum.

    With A >= B the semi-axes, (u, v) a point's coordinates along them and
    c = A^2 - B^2, the feet q = (A^2 u / (t + A^2), B^2 v / (t + B^2)) sit
    at the roots of F(t) = (A u / (t + A^2))^2 + (B v / (t + B^2))^2 - 1
    (D. Eberly, "Distance from a point to an ellipse, an ellipsoid, or a
    hyperellipsoid", 2013).  Off the major axis the nearest foot is the one
    root above -B^2; strictly inside the evolute, (A u)^(2/3) +
    (B v)^(2/3) < c^(2/3), the second local minimum is the root between
    -B^2 and F's minimiser below it.  Both have |t + B^2| >= B |v| and are
    bisected on its logarithm, all rows at once.  Within ELLIPSE_AXIS_TOL
    of the major axis, a point with A |u| < c (or a circle's centre) takes
    the mirror pair at t = -B^2, v's side first; any other, the vertex.

    Returns (near, other): the (n, 2) nearest feet and second local
    minima, other NaN on rows without one, and on every row unless second.
    """
    s = ellipse.semi_axes
    k = int(np.argmax(s))
    big, small = s[k], s[1 - k]
    c = big * big - small * small
    u, v = pts[:, k], pts[:, 1 - k]
    au, bv = big * u, small * v
    feet = np.full((2, u.size, 2), np.nan)   # root, row, (u, v)
    axis = np.abs(v) < ELLIPSE_AXIS_TOL * big
    mirror = axis & ((np.abs(au) < c) | (u == 0.0))
    qu = u[mirror] * (big * big / c if c > 0.0 else 0.0)
    qv = np.copysign(small * np.sqrt(np.maximum(0.0, 1.0 - (qu / big) ** 2)),
                     v[mirror])
    feet[0, mirror] = np.column_stack((qu, qv))
    feet[1, mirror] = np.column_stack((qu, -qv))
    vertex = axis & ~mirror
    feet[0, vertex] = np.outer(np.sign(u[vertex]), (big, 0.0))

    rows = np.flatnonzero(~axis)
    root = np.zeros(rows.size, dtype=np.intp)
    lo = np.abs(bv[rows])
    hi = np.sqrt(au[rows] ** 2 + bv[rows] ** 2)
    if second:
        alpha, beta = np.cbrt(au[rows] ** 2), np.cbrt(bv[rows] ** 2)
        inside = np.flatnonzero(alpha + beta < np.cbrt(c * c))
        rows = np.concatenate((rows, rows[inside]))
        root = np.concatenate((root, np.ones(inside.size, dtype=np.intp)))
        lo = np.concatenate((lo, lo[inside]))
        hi = np.concatenate((hi, c * beta[inside]
                             / (alpha[inside] + beta[inside])))
    # t + B^2 = sign x m, and F falls as m rises between the bracket ends
    sign = 1.0 - 2.0 * root
    au_r, bv_r = au[rows], bv[rows]
    for _ in range(ELLIPSE_BISECT_STEPS):
        mid = np.sqrt(lo * hi)
        above = (au_r / (c + sign * mid)) ** 2 + (bv_r / mid) ** 2 > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    w = sign * np.sqrt(lo * hi)
    feet[root, rows] = np.column_stack((big * big * u[rows] / (w + c),
                                        small * small * v[rows] / w))
    if k:
        feet = feet[:, :, ::-1]
    return feet[0], feet[1]


class Box(_Region):
    """Origin-centered axis-aligned box with given half-extents."""

    is_convex = True
    kind = "box"

    def __init__(self, extents):
        extents = np.array(extents, dtype=float)
        if extents.shape not in ((2,), (3,)):
            raise GeometryError("extents must be length 2 or 3")
        _require(extents, GeometryError,
                 "half-extents must be finite and positive", positive=True)
        extents.flags.writeable = False
        self._extents = extents
        self.dim = extents.shape[0]
        self._polytope = None

    @property
    def extents(self):
        """Half-extents, read-only so the cached polytope stays valid."""
        return self._extents

    def as_polytope(self):
        """The box as a ConvexPolytope, built once."""
        if self._polytope is None:
            eye = np.eye(self.dim)
            normals = np.vstack([eye, -eye])
            offsets = np.concatenate([self.extents, self.extents])
            self._polytope = ConvexPolytope(normals, offsets)
        return self._polytope

    def diameter(self):
        return 2.0 * float(np.linalg.norm(self.extents))

    def inradius(self):
        return float(self.extents.min())

    def bbox(self):
        return -self.extents.copy(), self.extents.copy()

    def _inside(self, pts):
        tol = 1e-12 * max(1.0, self.diameter())
        return np.all(np.abs(pts) <= self.extents + tol, axis=1)

    def boundary_distance(self, points):
        """The distance of the cached polytope, so a Box and its polytope
        give the same fields, masks and radii bit for bit."""
        return self.as_polytope().boundary_distance(points)

    def boundary_sample(self, spacing):
        return self.as_polytope().boundary_sample(spacing)

    def describe(self):
        return f"box(extents={tuple(float(v) for v in self.extents)})"

    def to_spec(self):
        return {"kind": "box", "extents": self.extents.tolist()}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "inradius": self.inradius(), "diameter": self.diameter()}


# ---------------------------------------------------------------------------
# rough graph hypersurfaces
# ---------------------------------------------------------------------------

class GraphHypersurface(_Region):
    """Graph of a lacunary cosine sum, C^1 but increasingly rough with depth.

    f(x) = sum_{k=0}^{terms-1} base^(-k (1 + alpha)) cos(base^k pi x)

    with alpha in (0, 1) and integer base >= 2.  The sum converges in C^1 and
    the derivative is alpha-Hoelder; truncation depth ``terms`` controls how
    rough the graph is.  The enclosed region is the open epigraph {y > f(x)}
    over the window, in the plane.  Statistics in experiments are restricted
    to the central half of the window to suppress endpoint effects.
    """

    is_convex = False
    kind = "graph"
    dim = 2

    def __init__(self, alpha, base, terms, window=(0.0, 1.0)):
        if not (0.0 < alpha < 1.0):
            raise GeometryError("alpha must lie in (0, 1)")
        if int(base) != base or base < 2:
            raise GeometryError("base must be an integer >= 2")
        if int(terms) != terms or terms < 1:
            raise GeometryError("terms must be a positive integer")
        lo, hi = float(window[0]), float(window[1])
        _require((lo, hi), GeometryError, "window must be finite")
        if not lo < hi:
            raise GeometryError("window must be a nonempty interval")
        self.alpha = float(alpha)
        self.base = int(base)
        self.terms = int(terms)
        self.window = (lo, hi)
        k = np.arange(self.terms)
        self._amps = float(self.base) ** (-k * (1.0 + self.alpha))
        self._freqs = float(self.base) ** k * np.pi

    def profile(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(self._amps * np.cos(np.multiply.outer(x, self._freqs)),
                      axis=-1)

    def profile_slope(self, x):
        x = np.asarray(x, dtype=float)
        return -np.sum(self._amps * self._freqs
                       * np.sin(np.multiply.outer(x, self._freqs)), axis=-1)

    def max_slope(self):
        return float(np.sum(self._amps * self._freqs))

    def _inside(self, pts):
        """Membership in the closed epigraph {y >= f(x)}."""
        return pts[:, 1] >= self.profile(pts[:, 0])

    def diameter(self):
        lo, hi = self.window
        amp = float(np.sum(self._amps))
        return math.hypot(hi - lo, 2.0 * amp)

    def bbox(self):
        lo, hi = self.window
        amp = float(np.sum(self._amps))
        return np.array([lo, -amp]), np.array([hi, amp])

    def boundary_distance(self, points):
        raise GeometryError("graphs have no exact boundary distance; "
                            "measure shape.boundary_sample(spacing) instead")

    def boundary_sample(self, spacing, pad=0.0):
        """Sample the graph over [window lo - pad, window hi + pad].

        Parameter steps shrink by the global slope bound so consecutive
        samples along the curve stay within the target spacing.
        """
        _check_spacing(spacing, self.diameter())
        lo, hi = self.window
        lo -= pad
        hi += pad
        slope_cap = math.sqrt(1.0 + self.max_slope() ** 2)
        dx = spacing / slope_cap
        n = max(8, int(math.ceil((hi - lo) / dx)) + 1)
        x = np.linspace(lo, hi, n)
        y = self.profile(x)
        slope = self.profile_slope(x)
        nrm = np.column_stack([-slope, np.ones_like(slope)])
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        # on-surface by construction: no _check_on_surface
        return SampledSurface(np.column_stack([x, y]), nrm, spacing,
                              closed=False)

    def describe(self):
        return (f"graph(alpha={self.alpha}, base={self.base}, "
                f"terms={self.terms}, window={self.window})")

    def to_spec(self):
        return {"kind": "graph", "alpha": self.alpha, "base": self.base,
                "terms": self.terms, "window": list(self.window)}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "diameter": self.diameter(), "max_slope": self.max_slope()}


# ---------------------------------------------------------------------------
# shared sampling helpers
# ---------------------------------------------------------------------------

def _check_spacing(spacing, diam):
    _require(spacing, GeometryError,
             "sample spacing must be finite and positive", positive=True)
    if spacing < MIN_SPACING_FACTOR * diam:
        raise GeometryError(
            f"sample spacing {spacing} below {MIN_SPACING_FACTOR} x diameter; "
            "refusing to allocate that many samples")


def _check_on_surface(shape, surf):
    tol = ON_SURFACE_TOL_FACTOR * shape.diameter()
    d = shape.boundary_distance(surf.points)
    worst = float(np.max(d)) if len(surf) else 0.0
    if not worst <= tol:    # also rejects NaN distances
        raise GeometryError(
            f"sampling left the boundary: worst offset {worst:.3e} > {tol:.3e}")


def _sample_polygon(vertices, spacing):
    """Uniform chain along polygon edges; vertices are always included."""
    pts, nrm = [], []
    m = vertices.shape[0]
    for i in range(m):
        a = vertices[i]
        b = vertices[(i + 1) % m]
        edge = b - a
        length = float(np.linalg.norm(edge))
        n = max(1, int(math.ceil(length / spacing)))
        t = np.arange(n) / n
        seg_pts = a + t[:, None] * edge
        tangent = edge / length
        outward = np.array([tangent[1], -tangent[0]])
        pts.append(seg_pts)
        nrm.append(np.tile(-outward, (n, 1)))
    return np.vstack(pts), np.vstack(nrm)


def _offset_elements_2d(base, epsilon):
    """Offset boundary elements: pushed edges plus vertex arcs (CCW order)."""
    v = base.vertices
    m = v.shape[0]
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    tangents = edges / lengths[:, None]
    outward = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    seg_a = v + epsilon * outward
    seg_b = np.roll(v, -1, axis=0) + epsilon * outward
    segments = (seg_a, seg_b, outward)
    arcs = []
    for i in range(m):
        n_prev = outward[(i - 1) % m]
        n_next = outward[i]
        a0 = math.atan2(n_prev[1], n_prev[0])
        a1 = math.atan2(n_next[1], n_next[0])
        sweep = (a1 - a0) % (2.0 * np.pi)
        arcs.append((v[i], a0, sweep))
    return segments, arcs


def _sample_offset_2d(body, spacing):
    seg, arcs = body.elements()
    seg_a, seg_b, outward = seg
    eps = body.epsilon
    pts, nrm = [], []
    m = seg_a.shape[0]
    for i in range(m):
        # vertex arc before edge i
        center, a0, sweep = arcs[i]
        n = max(1, int(math.ceil(eps * sweep / spacing)))
        t = a0 + sweep * np.arange(n) / n
        out = np.column_stack([np.cos(t), np.sin(t)])
        pts.append(center + eps * out)
        nrm.append(-out)
        # pushed edge i
        a, b = seg_a[i], seg_b[i]
        length = float(np.linalg.norm(b - a))
        n = max(1, int(math.ceil(length / spacing)))
        t = np.arange(n) / n
        pts.append(a + t[:, None] * (b - a))
        nrm.append(np.tile(-outward[i], (n, 1)))
    return np.vstack(pts), np.vstack(nrm)


def _sample_triangles(poly, spacing, push):
    """Barycentric grids over a 3D polytope's facet triangles, pushed out
    along their facet normals by push, at roughly the target spacing.
    Returns the sample lists (points, inner normals)."""
    tri = poly.triangles()
    pts, nrm = [], []
    for normal, a, u, v in zip(poly.normals[tri.facet], tri.a, tri.ab, tri.ac):
        n = max(1, int(math.ceil(max(np.linalg.norm(u), np.linalg.norm(v))
                                 / spacing)))
        # cell centroids of a regular barycentric refinement: cell (i, j)
        # has an upward triangle, and a downward one where i + j < n - 1
        i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
        cell = np.column_stack([i, j])[:, None] + np.c_[1.0, 2.0].T / 3.0
        cell = cell[np.column_stack([i + j < n, i + j < n - 1])] / n
        pts.append(a + push * normal + cell[:, :1] * u + cell[:, 1:] * v)
        nrm.append(np.tile(-normal, (len(cell), 1)))
    return pts, nrm


def _sample_offset_3d(body, spacing):
    """Offset surface sampling: pushed facets, edge strips, vertex caps."""
    base, eps, verts = body.base, body.epsilon, body.base.vertices
    pts, nrm = _sample_triangles(base, spacing, eps)
    # edge strips: an edge joins two vertices of two common facets, whose
    # normals the strip turns between
    facets = np.unique(base.triangles().facet)
    on = base._tight[:, facets]
    for i0, i1 in zip(*np.nonzero(np.triu(on.astype(int) @ on.T >= 2, 1))):
        n_a, n_b = base.normals[facets[on[i0] & on[i1]][:2]]
        ang = math.acos(float(np.clip(np.dot(n_a, n_b), -1.0, 1.0)))
        if ang < 1e-9:
            continue
        a, b = verts[i0], verts[i1]
        n_len = max(1, int(math.ceil(float(np.linalg.norm(b - a)) / spacing)))
        n_ang = max(1, int(math.ceil(eps * ang / spacing)))
        axis = np.cross(n_a, n_b)
        t = (np.arange(n_ang) + 0.5) / n_ang * ang
        rot = np.outer(np.cos(t), n_a) + np.outer(
            np.sin(t), np.cross(axis / np.linalg.norm(axis), n_a))
        p = a + ((np.arange(n_len) + 0.5) / n_len)[:, None] * (b - a)
        pts.append((p[:, None] + eps * rot).reshape(-1, 3))
        nrm.append(np.tile(-rot, (n_len, 1)))
    # vertex caps: sphere directions in the vertex normal cone, which no
    # other vertex lies beyond
    n_cap = max(64, int(math.ceil(4.0 * np.pi * eps * eps / spacing ** 2)))
    sphere = _direction_net(n_cap)
    for v in verts:
        cap = sphere[np.all(sphere @ (verts - v).T <= 1e-12, axis=1)]
        pts.append(v + eps * cap)
        nrm.append(-cap)
    return np.vstack(pts), np.vstack(nrm)


# ---------------------------------------------------------------------------
# low-level distance kernels shared with the projection module
# ---------------------------------------------------------------------------

# (row, column) pairs per block of every (node x boundary element) loop:
# keeps each block's temporaries near a megabyte whatever the column count
PAIRS_PER_BLOCK = 2 ** 16


def _row_blocks(n_rows, cost):
    """Slices of range(n_rows) of about PAIRS_PER_BLOCK pairs each.

    A scalar cost is every row's pair count: max(1, PAIRS_PER_BLOCK // cost)
    rows a block.  An array holds each row's count, and a block ends where
    the count of the rows before it crosses a multiple of PAIRS_PER_BLOCK.
    """
    if np.ndim(cost) == 0:
        step = max(1, PAIRS_PER_BLOCK // int(cost))
        for lo in range(0, n_rows, step):
            yield slice(lo, min(lo + step, n_rows))
        return
    cut = np.flatnonzero(np.diff((np.cumsum(cost) - cost)
                                 // PAIRS_PER_BLOCK)) + 1
    yield from map(slice, np.r_[0, cut], np.r_[cut, n_rows])


def _planes(buf, shape, k):
    """k planes of the given element-major (m, n) shape, m elements by n
    points: views of the front of the flat scratch buf, which must hold at
    least k m n entries."""
    m, n = shape
    return buf[:k * m * n].reshape(k, m, n)


def _plane_norm(px, py, qx, qy, sq, tmp, out):
    """sqrt((px - qx)^2 + (py - qy)^2) over element-major (m, n) planes,
    into out: px, py rows of n point coordinates, qx, qy (m, 1) columns or
    (m, n) planes; sq and tmp are work planes and may be qx and qy, out may
    be sq."""
    np.subtract(px, qx, out=sq)
    sq *= sq
    np.subtract(py, qy, out=tmp)
    tmp *= tmp
    sq += tmp
    return np.sqrt(sq, out=out)


def _segment_distances(px, py, cyc, dist, clamp, work):
    """Distances and clamp codes from the points (px, py), two rows of n
    coordinates, to the m segments of a _Cycle, written into the
    element-major (m, n) planes dist and clamp: one row per segment.

    clamp is -1 where the foot is the segment start, +1 where it is the
    end and 0 between.  The work runs in place on two (m, n) coordinate
    planes of the float scratch and two of the bool scratch of work (see
    _element_blocks), with t = (wx dx + wy dy) / |d|^2 clipped to [0, 1]
    and dist = sqrt(ex^2 + ey^2) for e = p - (a + t d).  That order of
    operations is fixed: np.hypot, vecdot or the expanded
    |w|^2 - 2t w.d + t^2 |d|^2 round differently, and every distance
    field, mask, foot and digest downstream reads these bits.
    """
    (ax, ay), (dx, dy) = cyc.seg_a.T[..., None], cyc.seg_d.T[..., None]
    t, e = _planes(work[0], dist.shape, 2)
    at_end, at_start = _planes(work[1], dist.shape, 2)
    np.subtract(px, ax, out=t)
    np.subtract(py, ay, out=e)
    t *= dx
    e *= dy
    t += e
    t /= cyc.seg_l2[:, None]
    np.clip(t, 0.0, 1.0, out=t)
    np.subtract(np.equal(t, 1.0, out=at_end).view(np.int8),
                np.equal(t, 0.0, out=at_start).view(np.int8), out=clamp)
    # the feet a + t d: x into e, y into t
    np.multiply(t, dx, out=e)
    e += ax
    t *= dy
    t += ay
    _plane_norm(px, py, e, t, e, t, dist)


def _wrap_turn(local, mask):
    """Angles local in [-2 pi, 2 pi] wrapped into [0, 2 pi], in place, in
    two masked steps over the bool plane mask: 2 pi off where local >=
    2 pi, then 2 pi on where local < 0.

    A sector angle arctan2(ry, rx) - a0, with a0 from math.atan2, lies in
    that range, where this is np.remainder(local, 2 pi) but for the sign
    of a zero, which no <= sweep test sees: NumPy's float remainder is
    fmod, exact on the range, plus 2 pi where that is negative, and -2 pi
    and 2 pi both give 0.  The order of the steps matters: a tiny negative
    angle rounds up to exactly 2 pi after the add and stays there, as
    np.remainder keeps it.  np.remainder itself costs several times the
    arctan2 that feeds it.
    """
    turn = 2.0 * np.pi
    np.subtract(local, turn, out=local,
                where=np.greater_equal(local, turn, out=mask))
    np.add(local, turn, out=local, where=np.less(local, 0.0, out=mask))
    return local


def _arc_distances(px, py, cyc, dist, clamp, work):
    """Distances and clamp codes from the points (px, py), two rows of n
    coordinates, to the m CCW circular arcs of a _Cycle, written into the
    element-major (m, n) planes dist and clamp: one row per arc.

    Off an arc's sector, or at its centre, a point's foot is the nearer
    end (-1 for e0, +1 for e1); on it the radial foot (0).  Like
    _segment_distances it works in place, on four (m, n) coordinate planes
    of the float scratch and two of the bool scratch of work, and its
    order of operations is fixed: r = sqrt(rx^2 + ry^2), the sector angle
    from arctan2(ry, rx), and each end distance the same square root of
    summed squares (not np.hypot or vecdot, which round differently).
    The sector angle arctan2(ry, rx) - a0 is wrapped by _wrap_turn.
    """
    (cx, cy), (x0, y0), (x1, y1) = (
        v.T[..., None] for v in (cyc.center, cyc.e0, cyc.e1))
    rx, ry, local, d1 = _planes(work[0], dist.shape, 4)
    on_arc, nearer0 = _planes(work[1], dist.shape, 2)
    np.subtract(px, cx, out=rx)
    np.subtract(py, cy, out=ry)
    np.arctan2(ry, rx, out=local)
    local -= cyc.a0[:, None]
    np.less_equal(_wrap_turn(local, on_arc), cyc.sweep[:, None], out=on_arc)
    rx *= rx
    ry *= ry
    rx += ry
    r = np.sqrt(rx, out=rx)
    on_arc &= np.greater(r, 1e-300, out=nearer0)
    r -= cyc.radius
    np.abs(r, out=r)
    d0 = _plane_norm(px, py, x0, y0, ry, local, ry)
    _plane_norm(px, py, x1, y1, d1, local, d1)
    np.less_equal(d0, d1, out=nearer0)
    np.copyto(d1, d0, where=nearer0)
    np.copyto(d1, r, where=on_arc)
    np.copyto(dist, d1)
    np.copyto(clamp, 1)
    np.copyto(clamp, -1, where=nearer0)
    np.copyto(clamp, 0, where=on_arc)


class _Cycle:
    """The boundary elements of a 2D polytope or offset, as arrays.

    Built once per shape.  In cycle order a polytope's element k is edge
    k, from seg_a[k] to seg_b[k] (direction seg_d[k], squared length
    seg_l2[k], 1 for a point edge); an offset's element 2i is the CCW arc
    of the given radius about base vertex center[i], from angle a0[i] (end
    point e0[i]) through sweep[i] (to e1[i]), and element 2i + 1 is pushed
    edge i.  A polytope has no arcs.
    """

    __slots__ = ("seg_a", "seg_b", "seg_d", "seg_l2", "center", "a0",
                 "sweep", "e0", "e1", "radius", "size")

    def __init__(self, seg_a, seg_b, arcs=(), radius=0.0):
        self.seg_a, self.seg_b, self.radius = seg_a, seg_b, radius
        self.seg_d = seg_b - seg_a
        l2 = np.einsum("md,md->m", self.seg_d, self.seg_d)
        self.seg_l2 = np.where(l2 <= 0.0, 1.0, l2)
        self.center = np.array([c for c, _, _ in arcs]).reshape(-1, 2)
        self.a0 = np.array([a for _, a, _ in arcs])
        self.sweep = np.array([w for _, _, w in arcs])
        self.e0 = self.center + radius * np.array(
            [[math.cos(a), math.sin(a)] for _, a, _ in arcs]).reshape(-1, 2)
        self.e1 = self.center + radius * np.array(
            [[math.cos(a + w), math.sin(a + w)]
             for _, a, w in arcs]).reshape(-1, 2)
        self.size = seg_a.shape[0] + self.center.shape[0]


def _element_blocks(shape, points):
    """The element-major (element, node) distance matrix of a 2D polytope
    or offset boundary, one block of nodes at a time, with the loop's
    scratch.

    Elements run in cycle order (_Cycle).  Yields (rows, dist, clamp,
    work) over the geometry._row_blocks of points (cost E, the element
    count): rows slices points, dist (E, n) holds the element distances
    and clamp (E, n) the element clamp codes, one row per element and the
    n points of the block along it, so a reduction over the elements is
    one over axis 0; on an offset the arcs are the even rows and the edges
    the odd ones.  work is the pair (float scratch, bool scratch) of flat
    arrays of 2 E n and 3 E n entries that the kernels work in, free for
    the caller's own planes (see _planes) until it draws the next block.

    All of it is allocated once per call, for the first and largest
    block, and every block works in [:E n] views of it: dist, clamp and
    work are valid only until the next block is drawn, so a caller copies
    whatever it keeps.  The scratch belongs to this one call, never to
    the module or the shape, so calls on several threads at once do not
    share it.
    """
    cyc = shape._cycle
    size = cyc.size
    blocks = list(_row_blocks(points.shape[0], size))
    if not blocks:
        return
    # one allocation for the first and largest block: three float planes
    # (dist, then two of work), then four byte planes (clamp, then three
    # of work).  Freed whole, it lets glibc serve the next call's scratch
    # from memory it keeps rather than mapping and faulting in fresh pages
    plane = blocks[0].stop * size
    scratch = np.empty(28 * plane, dtype=np.uint8)
    floats, flags = scratch[:24 * plane].view(np.float64), scratch[24 * plane:]
    dists, clamps = floats[:plane], flags[:plane].view(np.int8)
    work = floats[plane:], flags[plane:].view(bool)
    for rows in blocks:
        # the block's coordinates as two contiguous rows, which every
        # plane operation reads along its long axis
        px, py = np.ascontiguousarray(points[rows].T)
        dist = dists[:px.size * size].reshape(size, -1)
        clamp = clamps[:px.size * size].reshape(size, -1)
        if cyc.radius:
            _arc_distances(px, py, cyc, dist[0::2], clamp[0::2], work)
            _segment_distances(px, py, cyc, dist[1::2], clamp[1::2], work)
        else:
            _segment_distances(px, py, cyc, dist, clamp, work)
        yield rows, dist, clamp, work


def _element_feet(shape, points, elem, clamp):
    """Foot of point i on element elem[i] of a 2D polytope or offset
    boundary (cycle order, _Cycle), given that pair's clamp code clamp[i]
    from _element_blocks.

    Each foot is built in the order of operations of _segment_distances
    and _arc_distances, so it is the point whose distance the matrix
    holds: a + clip(t) d on a segment; on an arc the radial point
    c + r (p - c) / |p - c| (clamp 0), e0 (-1) or e1 (+1).  Returns (n, 2).
    """
    cyc = shape._cycle
    arc = elem % 2 == 0 if cyc.radius else np.zeros(elem.shape, dtype=bool)
    k = elem // 2 if cyc.radius else elem
    feet = np.empty_like(points)
    seg = np.flatnonzero(~arc)
    p, a, d = points[seg], cyc.seg_a[k[seg]], cyc.seg_d[k[seg]]
    t = (p[:, 0] - a[:, 0]) * d[:, 0]
    t += (p[:, 1] - a[:, 1]) * d[:, 1]
    t /= cyc.seg_l2[k[seg]]
    feet[seg] = a + np.clip(t, 0.0, 1.0)[:, None] * d
    arc = np.flatnonzero(arc)
    feet[arc] = np.where(clamp[arc, None] < 0, cyc.e0[k[arc]],
                         cyc.e1[k[arc]])
    on = arc[clamp[arc] == 0]
    c = cyc.center[k[on]]
    rel = points[on] - c
    rho = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])
    feet[on] = c + cyc.radius * rel / rho[:, None]
    return feet


def _boundary_distance_2d(shape, points):
    """Each point's minimum over the elements of the element-major
    distance matrix (axis 0), block by block."""
    out = np.empty(points.shape[0])
    for rows, dist, _, _ in _element_blocks(shape, points):
        out[rows] = dist.min(axis=0)
    return out


class _Triangles:
    """The facet triangles of a 3D polytope as arrays, built once.

    A facet is the three or more vertices tight at a plane (the first of
    the planes tight at just those), fanned counterclockwise seen from
    outside in their order of angle about their mean.  Triangle k has
    corners a[k], b[k], c[k], the vertices index[k], edges ab = b - a,
    ac = c - a and bc = c - b, and the plane facet[k], whose normal is
    its own.  centroid[k] is its centroid and reach[k] the largest
    distance from the centroid to a corner, so the triangle lies in the
    ball of that radius about its centroid.  corners holds each vertex
    once, and margin is 1e-9 x max(1, box diagonal of the vertices), the
    pruning bounds' rounding allowance (_polytope_boundary_distance_3d).
    """

    __slots__ = ("a", "b", "c", "index", "facet", "ab", "ac", "bc",
                 "centroid", "reach", "corners", "margin")

    def __init__(self, poly):
        pts, tight = poly.vertices, poly._tight
        plane = _first_rows(tight.T)
        plane = plane[tight[:, plane].sum(axis=0) >= 3]
        facet, vert = np.nonzero(tight.T[plane])
        count = np.bincount(facet)
        start = np.cumsum(count) - count
        mean = np.add.reduceat(pts[vert], start) / count[:, None]
        n = poly.normals[plane[facet]]
        u = np.cross(np.eye(3)[np.argmin(np.abs(n), axis=1)], n)
        rel = pts[vert] - mean[facet]
        ang = np.arctan2(np.vecdot(rel, np.cross(n, u)), np.vecdot(rel, u))
        vert = vert[np.lexsort((ang, facet))]
        # fan positions: inside a facet's run, neither its first nor last
        mid = 1 + np.flatnonzero((facet[:-2] == facet[1:-1])
                                 & (facet[1:-1] == facet[2:]))
        simp = np.column_stack([vert[start[facet[mid]]], vert[mid],
                                vert[mid + 1]])
        self.index, self.facet = simp, plane[facet[mid]]
        self.a, self.b, self.c = (pts[simp[:, k]] for k in range(3))
        self.ab = self.b - self.a
        self.ac = self.c - self.a
        self.bc = self.c - self.b
        self.centroid = (self.a + self.b + self.c) / 3.0
        self.reach = np.sqrt(np.max(
            [np.vecdot(v - self.centroid, v - self.centroid)
             for v in (self.a, self.b, self.c)], axis=0))
        self.corners = pts
        diag = float(np.linalg.norm(np.ptp(self.corners, axis=0)))
        self.margin = 1e-9 * max(1.0, diag)


def _squared_distances(points, q):
    """|p - q|^2 of every point (n, 3) and every q (m, 3): an (n, m)
    matrix summed over coordinate planes in place."""
    out = points[:, :1] - q[:, 0]
    out *= out
    tmp = np.empty_like(out)
    for k in (1, 2):
        np.subtract(points[:, k:k + 1], q[:, k], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _safe_denominator(x):
    return np.where(np.abs(x) < 1e-300, 1.0, x)


def _along(start, edge, num, den, i):
    """start + (num / den) edge on the pairs i, den kept off zero."""
    t = num[i] / _safe_denominator(den[i])
    return start.take(i, axis=0) + t[:, None] * edge.take(i, axis=0)


def _triangle_feet(tri, k, p):
    """Distances and closest points from p[i] (n, 3) to facet triangle
    k[i] of tri (_Triangles).

    Each pair runs Ericson's Voronoi-region tests in a fixed order: corner
    a, corner b, edge ab, corner c, edge ac, edge bc, then the face, and
    the first test that holds gives the foot.  The dots are einsum over
    the length-3 axis and the distance is np.linalg.norm of foot - p,
    the arithmetic of the broadcast (point, triangle) kernel this replaced
    (``closest_point_triangles`` in tests/oracles.py), so a pair's bits
    do not depend on the other pairs.  Each foot formula runs only on the
    pairs of its region: a stable sort groups the pairs by region, and the
    results go back to pair order at the end.  Returns (dist (n,), feet
    (n, 3)).
    """
    a, b, c, ab, ac, bc = (v.take(k, axis=0) for v in (
        tri.a, tri.b, tri.c, tri.ab, tri.ac, tri.bc))
    ap = p - a
    d1 = np.einsum("kd,kd->k", ap, ab)
    d2 = np.einsum("kd,kd->k", ap, ac)
    bp = p - b
    d3 = np.einsum("kd,kd->k", bp, ab)
    d4 = np.einsum("kd,kd->k", bp, ac)
    cp = p - c
    d5 = np.einsum("kd,kd->k", cp, ab)
    d6 = np.einsum("kd,kd->k", cp, ac)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    e43, e56 = d4 - d3, d5 - d6
    tests = ((d1 <= 0) & (d2 <= 0),
             (d3 >= 0) & (d4 <= d3),
             (vc <= 0) & (d1 >= 0) & (d3 <= 0),
             (d6 >= 0) & (d5 <= d6),
             (vb <= 0) & (d2 >= 0) & (d6 <= 0),
             (va <= 0) & (e43 >= 0) & (e56 >= 0))
    region = np.full(k.shape[0], len(tests), dtype=np.int8)   # the face
    for r in reversed(range(len(tests))):
        region[tests[r]] = r
    order = np.argsort(region, kind="stable")
    i = np.split(order, np.cumsum(
        np.bincount(region, minlength=len(tests) + 1))[:-1])
    face = va + vb + vc
    feet = np.concatenate([
        a.take(i[0], axis=0),
        b.take(i[1], axis=0),
        _along(a, ab, d1, d1 - d3, i[2]),
        c.take(i[3], axis=0),
        _along(a, ac, d2, d2 - d6, i[4]),
        _along(b, bc, e43, e43 + e56, i[5]),
        (_along(a, ab, vb, face, i[6])
         + (vc[i[6]] / _safe_denominator(face[i[6]]))[:, None]
         * ac.take(i[6], axis=0))])
    dist = np.linalg.norm(feet - p.take(order, axis=0), axis=1)
    back = np.empty_like(order)
    back[order] = np.arange(order.shape[0])
    return dist.take(back), feet.take(back, axis=0)


def _triangle_pairs(tri, points):
    """The (point, triangle) pairs that can hold a point's nearest foot,
    with their distances and feet, one block of points at a time.

    A pair is kept unless its lower bound exceeds the point's upper bound
    (_polytope_boundary_distance_3d gives both and why the pruning is
    exact), so a NaN point keeps every pair.  Yields (rows, k, dist,
    feet): the kept pairs in (point, triangle) order, rows indexing
    points and k the triangles, with dist and feet as _triangle_feet.
    """
    for block in _row_blocks(points.shape[0], tri.a.shape[0]):
        p = points[block]
        upper = np.sqrt(_squared_distances(p, tri.corners).min(axis=1))
        bound = upper + tri.margin * (1.0 + upper)
        bound = bound[:, None] + tri.reach
        bound *= bound
        rows, k = np.nonzero(~(_squared_distances(p, tri.centroid) > bound))
        dist, feet = _triangle_feet(tri, k, p.take(rows, axis=0))
        yield block.start + rows, k, dist, feet


def _polytope_boundary_distance_3d(poly, points):
    """Distance from points (n, 3) to the facet triangles of a 3D polytope.

    Each point's distance is the minimum of Ericson's closest-point
    distances over the triangles, found on the pairs that two bounds do
    not rule out (_triangle_pairs):

    - the upper bound U is the distance to the nearest vertex, at
      least the distance to any triangle at that corner;
    - the lower bound of a triangle is |p - centroid| - reach, since its
      foot lies within reach of the centroid (_Triangles).

    A pair is kept when its lower bound is at most U + margin (1 + U),
    with margin 1e-9 x max(1, box diagonal of the vertices), far above the
    rounding of the bounds and of the kernel's distances.  The pruning is
    exact: the triangle whose computed distance d is the row minimum has
    lower bound at most d, and d is at most U, so it is always kept, as
    are the triangles at the nearest corner.  The row minimum over the
    kept pairs is therefore the minimum over all triangles, bit for bit,
    and since kept pairs stay in triangle order the first triangle at the
    minimum is too (projection reads its foot).  Rows come sorted and
    none is empty, so np.minimum.reduceat over the row starts reduces
    each row.
    """
    out = np.empty(points.shape[0])
    for rows, _, dist, _ in _triangle_pairs(poly.triangles(), points):
        start = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[start]] = np.minimum.reduceat(dist, start)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def shape_from_spec(spec):
    """Build a shape from its serialized description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GeometryError("shape spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "polytope":
            return ConvexPolytope(spec["normals"], spec["offsets"])
        if kind == "random_polytope":
            return make_random_polytope(spec["n_facets"], spec["seed"],
                                        spec.get("dim", 2))
        if kind == "offset":
            return OffsetBody(shape_from_spec(spec["base"]), spec["epsilon"])
        if kind == "ball":
            return Ball(spec["center"], spec["radius"])
        if kind == "ellipse":
            return Ellipse(spec["semi_axes"])
        if kind == "box":
            return Box(spec["extents"])
        if kind == "graph":
            if spec.get("dim", 2) != 2:
                raise GeometryError("graphs are 2D: a graph spec's dim "
                                    f"must be 2, got {spec['dim']!r}")
            return GraphHypersurface(spec["alpha"], spec["base"], spec["terms"],
                                     tuple(spec.get("window", (0.0, 1.0))))
    except KeyError as exc:
        raise GeometryError(f"shape spec missing field {exc}") from exc
    raise GeometryError(f"unknown shape kind {kind!r}")


def save_shape(shape, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(shape.to_spec(), fh, indent=2)
        fh.write("\n")


def load_shape(path):
    with open(path, "r", encoding="utf-8") as fh:
        return shape_from_spec(json.load(fh))
