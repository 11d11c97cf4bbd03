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
                        SampledSurface with inner normals and weights
    to_spec()           JSON-serializable description, round-trips exactly

Conventions: polytope facet normals point outward and are unit length;
sampled inner normals point into the enclosed region.  Offset bodies expand
the base polytope by a fixed radius, which rounds every vertex into a
circular arc (2D) or spherical patch (3D).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, cKDTree

UNIT_VECTOR_TOL = 1e-12
ON_SURFACE_TOL_FACTOR = 1e-9    # boundary membership tolerance, times diameter
MIN_SPACING_FACTOR = 1e-6       # reject boundary samplings finer than this, times diameter


class GeometryError(ValueError):
    """Invalid shape construction or sampling request."""


# ---------------------------------------------------------------------------
# sampled surfaces
# ---------------------------------------------------------------------------

class SampledSurface:
    """Discrete boundary: points, inner unit normals, quadrature weights.

    ``points`` has shape (N, dim); ``normals`` matches and holds unit vectors
    pointing into the enclosed region; ``weights`` are surface-measure shares
    (arc length in 2D, area in 3D).  ``spacing`` records the target sample
    spacing used to build the chain, which downstream tolerances scale with.
    """

    def __init__(self, points, normals, weights, source, spacing, closed=True):
        points = np.asarray(points, dtype=float)
        normals = np.asarray(normals, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[1] not in (2, 3):
            raise GeometryError("sample points must be (N, 2) or (N, 3)")
        if not np.isfinite(points).all():
            raise GeometryError("sample points must be finite")
        if normals.shape != points.shape:
            raise GeometryError("normals must match points shape")
        if weights.shape != (points.shape[0],):
            raise GeometryError("weights must be one per sample")
        norms = np.linalg.norm(normals, axis=1)
        if points.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise GeometryError("inner normals must be unit length")
        self.points = points
        self.normals = normals
        self.weights = weights
        self.source = source
        self.spacing = float(spacing)
        self.closed = bool(closed)
        self._tree = None

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def tree(self):
        # on a dense ordered chain, compacted node boxes make nearest
        # queries about 8x slower (143 vs 17 us on a 165k-sample rough graph)
        if self._tree is None:
            self._tree = cKDTree(self.points, compact_nodes=False)
        return self._tree

    def diameter(self):
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def bbox(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d, _ = self.tree().query(points)
        return d


# ---------------------------------------------------------------------------
# convex polytopes
# ---------------------------------------------------------------------------

def _direction_net(dim, n=720):
    """Unit directions used for the boundedness certificate."""
    if dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    # Fibonacci sphere
    k = np.arange(n, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * k
    return np.column_stack([
        np.cos(theta) * np.sin(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(phi),
    ])


class ConvexPolytope:
    """Bounded intersection of halfspaces {x : n_i . x <= c_i} with unit n_i.

    Vertices are derived once at construction (Qhull halfspace intersection
    seeded by the Chebyshev center) and cached; 2D vertex rings are stored in
    counterclockwise order.  Construction rejects unbounded or empty input.
    """

    is_convex = True
    kind = "polytope"

    def __init__(self, normals, offsets, _spec=None):
        normals = np.array(normals, dtype=float)
        offsets = np.array(offsets, dtype=float)
        if normals.ndim != 2 or normals.shape[1] not in (2, 3):
            raise GeometryError("normals must be (m, 2) or (m, 3)")
        if offsets.shape != (normals.shape[0],):
            raise GeometryError("offsets must be one per halfspace")
        self.dim = normals.shape[1]
        if normals.shape[0] < self.dim + 1:
            raise GeometryError(
                f"{normals.shape[0]} facets cannot bound a {self.dim}D body "
                f"(need at least {self.dim + 1})")
        lens = np.linalg.norm(normals, axis=1)
        if np.max(np.abs(lens - 1.0)) > UNIT_VECTOR_TOL:
            raise GeometryError("facet normals must be unit length within 1e-12")

        # boundedness certificate: the normals must positively span R^dim
        net = _direction_net(self.dim)
        support_ok = (normals @ net.T).max(axis=0)
        if support_ok.min() <= 1e-9:
            raise GeometryError(
                "halfspaces leave an unbounded direction; sampled facets do "
                "not enclose a bounded body")

        self.normals = normals
        self.offsets = offsets
        self._spec = _spec

        center, radius = self._chebyshev()
        if radius <= 0.0:
            raise GeometryError("halfspaces have empty interior")
        self.chebyshev_center = center
        self._inradius = radius
        self.vertices = self._enumerate_vertices()
        self._diameter = float(
            max(np.linalg.norm(self.vertices - v, axis=1).max()
                for v in self.vertices))
        self._hull = None
        self._triangles = None
        for arr in (self.normals, self.offsets, self.vertices):
            arr.flags.writeable = False
        if self.dim == 2:
            self._cycle = _Cycle(*self.edges())

    # -- construction helpers ------------------------------------------------

    def _chebyshev(self):
        m, d = self.normals.shape
        # maximize r subject to n_i . c + r <= c_i
        A = np.hstack([self.normals, np.ones((m, 1))])
        obj = np.zeros(d + 1)
        obj[-1] = -1.0
        res = linprog(obj, A_ub=A, b_ub=self.offsets,
                      bounds=[(None, None)] * d + [(0, None)], method="highs")
        if not res.success:
            if res.status == 3:
                raise GeometryError(
                    "polytope is unbounded: the facet normals leave an "
                    "open direction")
            raise GeometryError(f"Chebyshev center LP failed: {res.message}")
        return res.x[:d].copy(), float(res.x[-1])

    def _enumerate_vertices(self):
        halfspaces = np.hstack([self.normals, -self.offsets[:, None]])
        try:
            hsi = HalfspaceIntersection(halfspaces, self.chebyshev_center)
        except Exception as exc:  # qhull failures surface as shape errors
            raise GeometryError(f"vertex enumeration failed: {exc}") from exc
        pts = hsi.intersections
        # dedupe near-identical intersection points, first come first kept;
        # vecdot takes the same dot product as np.linalg.norm of one vector
        scale = max(1.0, float(np.abs(pts).max()))
        diff = pts[:, None, :] - pts[None, :, :]
        near = np.tril(np.sqrt(np.vecdot(diff, diff)) <= 1e-9 * scale, k=-1)
        keep = np.ones(pts.shape[0], dtype=bool)
        for i in np.flatnonzero(near.any(axis=1)):
            keep[i] = not (near[i] & keep).any()
        verts = pts[keep]
        if self.dim == 2:
            ref = verts.mean(axis=0)
            ang = np.arctan2(verts[:, 1] - ref[1], verts[:, 0] - ref[0])
            verts = verts[np.argsort(ang)]
        return verts

    def hull(self):
        """Convex hull of the vertex set (3D facet source)."""
        if self._hull is None:
            self._hull = ConvexHull(self.vertices)
        return self._hull

    def triangles(self):
        """The hull triangles as three (m, 3) arrays of their corners (3D
        distance and projection kernel input), built once."""
        if self._triangles is None:
            hull = self.hull()
            self._triangles = tuple(hull.points[hull.simplices[:, k]]
                                    for k in range(3))
        return self._triangles

    # -- geometry queries -----------------------------------------------------

    def inradius(self):
        return self._inradius

    def diameter(self):
        return self._diameter

    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def support(self, direction):
        return float(np.max(self.vertices @ np.asarray(direction, dtype=float)))

    def contains(self, points, tol=None):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if tol is None:
            tol = 1e-12 * max(1.0, self._diameter)
        inside = np.all(pts @ self.normals.T <= self.offsets + tol, axis=1)
        return bool(inside[0]) if single else inside

    def edges(self):
        """(a, b) endpoint arrays of boundary edges (2D only)."""
        if self.dim != 2:
            raise GeometryError("edges() is 2D; use hull() facets in 3D")
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
            raise GeometryError("area is 2D; use hull().volume in 3D")
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return float(0.5 * np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    # -- sampling and serialization -------------------------------------------

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim == 2:
            pts, nrm, wts = _sample_polygon(self.vertices, spacing)
            surf = SampledSurface(pts, nrm, wts, source=self.describe(),
                                  spacing=spacing, closed=True)
        else:
            pts, nrm, wts = _sample_hull_3d(self.hull(), spacing)
            surf = SampledSurface(pts, nrm, wts, source=self.describe(),
                                  spacing=spacing, closed=False)
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
    the unit ball and has inradius exactly 1.  Sampling that leaves the body
    unbounded is rejected rather than silently resampled, keeping the map
    from (n_facets, seed) to shapes deterministic.
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
    return ConvexPolytope(normals, offsets, _spec=spec)


# ---------------------------------------------------------------------------
# offset bodies
# ---------------------------------------------------------------------------

class OffsetBody:
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
        if epsilon <= 0.0:
            raise GeometryError("offset radius must be positive")
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

    def contains(self, points, tol=None):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if tol is None:
            tol = 1e-12 * max(1.0, self.diameter())
        ok = self.base.contains(pts)
        # the base distance is at least the largest facet violation, so only
        # points within epsilon of the base's facet planes can be inside
        violation = (pts @ self.base.normals.T
                     - self.base.offsets).max(axis=1)
        near = ~ok & (violation <= self.epsilon + 2.0 * tol)
        ok[near] = self.base.boundary_distance(pts[near]) <= self.epsilon + tol
        return bool(ok[0]) if single else ok

    def elements(self):
        """Offset boundary elements: (segments, arcs); 2D only."""
        if self.dim != 2:
            raise GeometryError("explicit offset elements are 2D")
        return self._segments, self._arcs

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dim == 2:
            return _boundary_distance_2d(self, points)
        # 3D: exact via the base projection branches
        d_base = self.base.boundary_distance(points)
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
            pts, nrm, wts = _sample_offset_2d(self, spacing)
            surf = SampledSurface(pts, nrm, wts, source=self.describe(),
                                  spacing=spacing, closed=True)
        else:
            pts, nrm, wts = _sample_offset_3d(self, spacing)
            surf = SampledSurface(pts, nrm, wts, source=self.describe(),
                                  spacing=spacing, closed=False)
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

class Ball:
    """Round ball; the boundary is a circle (2D) or sphere (3D)."""

    is_convex = True
    kind = "ball"

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if center.shape not in ((2,), (3,)):
            raise GeometryError("ball center must be 2D or 3D")
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = center.shape[0]

    def diameter(self):
        return 2.0 * self.radius

    def inradius(self):
        return self.radius

    def bbox(self):
        return self.center - self.radius, self.center + self.radius

    def contains(self, points, tol=None):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if tol is None:
            tol = 1e-12 * max(1.0, self.diameter())
        ok = np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol
        return bool(ok[0]) if single else ok

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(np.linalg.norm(points - self.center, axis=1) - self.radius)

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim == 2:
            n = max(8, int(math.ceil(2.0 * np.pi * self.radius / spacing)))
            t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            outward = np.column_stack([np.cos(t), np.sin(t)])
            pts = self.center + self.radius * outward
            wts = np.full(n, 2.0 * np.pi * self.radius / n)
            surf = SampledSurface(pts, -outward, wts, source=self.describe(),
                                  spacing=spacing, closed=True)
        else:
            area = 4.0 * np.pi * self.radius ** 2
            n = max(32, int(math.ceil(area / spacing ** 2)))
            outward = _direction_net(3, n)
            pts = self.center + self.radius * outward
            wts = np.full(n, area / n)
            surf = SampledSurface(pts, -outward, wts, source=self.describe(),
                                  spacing=spacing, closed=False)
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


class Ellipse:
    """Origin-centered ellipse/ellipsoid with positive semi-axes."""

    is_convex = True
    kind = "ellipse"

    def __init__(self, semi_axes):
        semi_axes = np.asarray(semi_axes, dtype=float)
        if semi_axes.shape not in ((2,), (3,)):
            raise GeometryError("semi_axes must be length 2 or 3")
        if np.any(semi_axes <= 0):
            raise GeometryError("semi-axes must be positive")
        self.semi_axes = semi_axes
        self.dim = semi_axes.shape[0]

    def diameter(self):
        return 2.0 * float(self.semi_axes.max())

    def inradius(self):
        return float(self.semi_axes.min())

    def bbox(self):
        return -self.semi_axes.copy(), self.semi_axes.copy()

    def contains(self, points, tol=None):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if tol is None:
            tol = 1e-12
        ok = np.sum((pts / self.semi_axes) ** 2, axis=1) <= 1.0 + tol
        return bool(ok[0]) if single else ok

    def nearest_boundary_point(self, point):
        """Nearest point on the ellipse via the standard root equation.

        Solves sum((s_i x_i / (t + s_i^2))^2) = 1 by bracketing; valid for
        generic points (nonzero component along the shortest axis).  The
        center falls back to the nearest axis endpoint.
        """
        p = np.asarray(point, dtype=float)
        s = self.semi_axes
        scale = float(s.max())
        if np.linalg.norm(p) <= 1e-14 * scale:
            k = int(np.argmin(s))
            q = np.zeros(self.dim)
            q[k] = s[k]
            return q
        s2 = s * s

        def f(t):
            return float(np.sum((s * p / (t + s2)) ** 2) - 1.0)

        k_min = int(np.argmin(s))
        if abs(p[k_min]) < 1e-14 * scale:
            # degenerate: solve in the complementary coordinates, which in
            # 2D is the pair of axis endpoints rather than a sub-ellipse
            mask = np.arange(self.dim) != k_min
            if int(mask.sum()) == 1:
                q_sub = np.copysign(s[mask], p[mask])
            else:
                q_sub = Ellipse(s[mask]).nearest_boundary_point(p[mask])
            q = np.zeros(self.dim)
            q[mask] = q_sub
            # the off-axis candidate may be closer when p is inside the evolute
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.sum((p[mask] * s[mask]
                            / (s[mask] ** 2 - s2[k_min])) ** 2)
            if np.isfinite(u) and u < 1.0:
                q_alt = np.zeros(self.dim)
                q_alt[mask] = p[mask] * s[mask] ** 2 / (s[mask] ** 2 - s2[k_min])
                q_alt[k_min] = s[k_min] * math.sqrt(1.0 - u)
                if np.linalg.norm(q_alt - p) < np.linalg.norm(q - p):
                    q = q_alt
            return q

        lo = -float(s2[k_min])
        span = float(np.linalg.norm(s * p)) + float(s2.max())
        lo_probe = lo + 1e-15 * max(1.0, abs(lo))
        step = max(span, 1e-12)
        hi = lo + step
        while f(hi) > 0.0:
            hi = lo + (hi - lo) * 2.0
        from scipy.optimize import brentq
        t = brentq(f, lo_probe, hi, xtol=1e-15, maxiter=200)
        return s2 * p / (t + s2)

    def boundary_distance(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(points.shape[0])
        for i, p in enumerate(points):
            out[i] = np.linalg.norm(p - self.nearest_boundary_point(p))
        return out

    def boundary_sample(self, spacing):
        _check_spacing(spacing, self.diameter())
        if self.dim != 2:
            raise GeometryError("ellipsoid sampling is not implemented; "
                                "use 2D ellipses or polytopes in 3D")
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
        wts = np.full(n, total / n)
        surf = SampledSurface(pts, -outward, wts, source=self.describe(),
                              spacing=spacing, closed=True)
        _check_on_surface(self, surf)
        return surf

    def describe(self):
        return f"ellipse(semi_axes={tuple(float(v) for v in self.semi_axes)})"

    def to_spec(self):
        return {"kind": "ellipse", "semi_axes": self.semi_axes.tolist()}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "inradius": self.inradius(), "diameter": self.diameter()}


class Box:
    """Origin-centered axis-aligned box with given half-extents."""

    is_convex = True
    kind = "box"

    def __init__(self, extents):
        extents = np.array(extents, dtype=float)
        if extents.shape not in ((2,), (3,)):
            raise GeometryError("extents must be length 2 or 3")
        if np.any(extents <= 0):
            raise GeometryError("half-extents must be positive")
        extents.flags.writeable = False
        self._extents = extents
        self.dim = extents.shape[0]
        self._polytope = None

    @property
    def extents(self):
        """Half-extents, read-only so the cached polytope stays valid."""
        return self._extents

    def as_polytope(self):
        """The box as a ConvexPolytope, built once (an LP and Qhull)."""
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

    def contains(self, points, tol=None):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if tol is None:
            tol = 1e-12 * max(1.0, self.diameter())
        ok = np.all(np.abs(pts) <= self.extents + tol, axis=1)
        return bool(ok[0]) if single else ok

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

class GraphHypersurface:
    """Graph of a lacunary cosine sum, C^1 but increasingly rough with depth.

    f(x) = sum_{k=0}^{terms-1} base^(-k (1 + alpha)) cos(base^k pi x)

    with alpha in (0, 1) and integer base >= 2.  The sum converges in C^1 and
    the derivative is alpha-Hoelder; truncation depth ``terms`` controls how
    rough the graph is.  The enclosed region is the open epigraph {y > f(x)}
    over the window; in 3D the profile is applied radially.  Statistics in
    experiments are restricted to the central half of the window to suppress
    endpoint effects.
    """

    is_convex = False
    kind = "graph"

    def __init__(self, alpha, base, terms, window=(0.0, 1.0), dim=2):
        if not (0.0 < alpha < 1.0):
            raise GeometryError("alpha must lie in (0, 1)")
        if int(base) != base or base < 2:
            raise GeometryError("base must be an integer >= 2")
        if int(terms) != terms or terms < 1:
            raise GeometryError("terms must be a positive integer")
        if dim not in (2, 3):
            raise GeometryError("dim must be 2 or 3")
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise GeometryError("window must be a nonempty interval")
        self.alpha = float(alpha)
        self.base = int(base)
        self.terms = int(terms)
        self.window = (lo, hi)
        self.dim = dim
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

    def height(self, points):
        """Graph height under a point: f(x) in 2D, f(|xy|) radially in 3D."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dim == 2:
            return self.profile(points[:, 0])
        return self.profile(np.linalg.norm(points[:, :2], axis=1))

    def contains(self, points, tol=0.0):
        """Membership in the closed epigraph {last coordinate >= f}."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        ok = pts[:, -1] >= self.height(pts) - tol
        return bool(ok[0]) if single else ok

    def diameter(self):
        lo, hi = self.window
        amp = float(np.sum(self._amps))
        return math.hypot(hi - lo, 2.0 * amp)

    def bbox(self):
        lo, hi = self.window
        amp = float(np.sum(self._amps))
        if self.dim == 2:
            return np.array([lo, -amp]), np.array([hi, amp])
        return np.array([lo, lo, -amp]), np.array([hi, hi, amp])

    def boundary_distance(self, points):
        raise GeometryError("graphs have no exact boundary distance; "
                            "measure shape.boundary_sample(spacing) instead")

    def boundary_sample(self, spacing, pad=0.0):
        """Sample the graph over [window lo - pad, window hi + pad].

        Parameter steps shrink by the global slope bound so consecutive
        samples along the curve stay within the target spacing.
        """
        _check_spacing(spacing, self.diameter())
        if self.dim != 2:
            raise GeometryError("3D graph sampling is not implemented; "
                                "analyze radial profiles through 2D sections")
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
        pts = np.column_stack([x, y])
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        wts = np.zeros(n)
        wts[:-1] += 0.5 * seg
        wts[1:] += 0.5 * seg
        surf = SampledSurface(pts, nrm, wts, source=self.describe(),
                              spacing=spacing, closed=False)
        # on-surface check is exact here by construction
        return surf

    def describe(self):
        return (f"graph(alpha={self.alpha}, base={self.base}, "
                f"terms={self.terms}, window={self.window})")

    def to_spec(self):
        return {"kind": "graph", "alpha": self.alpha, "base": self.base,
                "terms": self.terms, "window": list(self.window),
                "dim": self.dim}

    def summary(self):
        return {"kind": self.describe(), "dim": self.dim,
                "diameter": self.diameter(), "max_slope": self.max_slope()}


# ---------------------------------------------------------------------------
# shared sampling helpers
# ---------------------------------------------------------------------------

def _check_spacing(spacing, diam):
    if spacing <= 0:
        raise GeometryError("sample spacing must be positive")
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
    pts, nrm, wts = [], [], []
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
        wts.append(np.full(n, length / n))
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


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
    pts, nrm, wts = [], [], []
    m = seg_a.shape[0]
    for i in range(m):
        # vertex arc before edge i
        center, a0, sweep = arcs[i]
        arc_len = eps * sweep
        n = max(1, int(math.ceil(arc_len / spacing)))
        t = a0 + sweep * np.arange(n) / n
        out = np.column_stack([np.cos(t), np.sin(t)])
        pts.append(center + eps * out)
        nrm.append(-out)
        wts.append(np.full(n, arc_len / n))
        # pushed edge i
        a, b = seg_a[i], seg_b[i]
        length = float(np.linalg.norm(b - a))
        n = max(1, int(math.ceil(length / spacing)))
        t = np.arange(n) / n
        pts.append(a + t[:, None] * (b - a))
        nrm.append(np.tile(-outward[i], (n, 1)))
        wts.append(np.full(n, length / n))
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


def _sample_triangles(hull, spacing, push):
    """Barycentric grids over hull triangles, pushed out along their
    normals by push, at roughly the target spacing.  Returns the sample
    lists (points, inner normals, weights) and the triangles' unit
    normals."""
    pts, nrm, wts, normals = [], [], [], []
    for simplex, eq in zip(hull.simplices, hull.equations):
        normal = eq[:3] / np.linalg.norm(eq[:3])
        normals.append(normal)
        a, b, c = hull.points[simplex] + push * normal
        u, v = b - a, c - a
        area = 0.5 * float(np.linalg.norm(np.cross(u, v)))
        n = max(1, int(math.ceil(max(np.linalg.norm(u), np.linalg.norm(v))
                                 / spacing)))
        cell = []
        for i in range(n):
            for j in range(n - i):
                # cell centroids of a regular barycentric refinement
                cell.append(((i + 1.0 / 3.0) / n, (j + 1.0 / 3.0) / n))
                if i + j < n - 1:
                    cell.append(((i + 2.0 / 3.0) / n, (j + 2.0 / 3.0) / n))
        cell = np.array(cell)
        p = a + cell[:, :1] * u + cell[:, 1:] * v
        pts.append(p)
        nrm.append(np.tile(-normal, (p.shape[0], 1)))
        wts.append(np.full(p.shape[0], area / p.shape[0]))
    return pts, nrm, wts, normals


def _sample_hull_3d(hull, spacing):
    """Barycentric grids over hull triangles at roughly the target spacing."""
    pts, nrm, wts, _ = _sample_triangles(hull, spacing, 0.0)
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


def _sample_offset_3d(body, spacing):
    """Offset surface sampling: pushed facets, edge strips, vertex caps."""
    base = body.base
    eps = body.epsilon
    hull = base.hull()
    verts = hull.points
    pts, nrm, wts, facet_normals = _sample_triangles(hull, spacing, eps)

    # edge strips between adjacent facets; two hull triangles in one facet
    # plane of the base meet at no angle, whatever acos reads from their
    # rounded normals
    plane = np.argmax(np.array(facet_normals) @ base.normals.T, axis=1)
    edge_map = {}
    for fi, simplex in enumerate(hull.simplices):
        for e in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((simplex[e[0]], simplex[e[1]])))
            edge_map.setdefault(key, []).append(fi)
    for (i0, i1), facets in edge_map.items():
        if len(facets) != 2 or plane[facets[0]] == plane[facets[1]]:
            continue
        n_a = facet_normals[facets[0]]
        n_b = facet_normals[facets[1]]
        cosang = float(np.clip(np.dot(n_a, n_b), -1.0, 1.0))
        ang = math.acos(cosang)
        if ang < 1e-9:
            continue
        a, b = verts[i0], verts[i1]
        length = float(np.linalg.norm(b - a))
        n_len = max(1, int(math.ceil(length / spacing)))
        n_ang = max(1, int(math.ceil(eps * ang / spacing)))
        axis = np.cross(n_a, n_b)
        axis /= np.linalg.norm(axis)
        for it in range(n_len):
            p = a + (it + 0.5) / n_len * (b - a)
            for ia in range(n_ang):
                t = (ia + 0.5) / n_ang * ang
                rot = (n_a * math.cos(t)
                       + np.cross(axis, n_a) * math.sin(t)
                       + axis * np.dot(axis, n_a) * (1.0 - math.cos(t)))
                pts.append((p + eps * rot)[None])
                nrm.append((-rot)[None])
                wts.append(np.array([length / n_len * eps * ang / n_ang]))

    # vertex caps: sphere directions restricted to the vertex normal cone
    vert_facets = {}
    for fi, simplex in enumerate(hull.simplices):
        for vi in simplex:
            vert_facets.setdefault(int(vi), []).append(fi)
    n_cap = max(64, int(math.ceil(4.0 * np.pi * eps * eps / spacing ** 2)))
    sphere = _direction_net(3, n_cap)
    for vi, facets in vert_facets.items():
        v = verts[vi]
        sel = np.all(sphere @ (verts[list(set(
            int(j) for f in facets for j in hull.simplices[f]) - {vi})] - v).T
            <= 1e-12, axis=1)
        cap = sphere[sel]
        if cap.shape[0] == 0:
            continue
        share = 4.0 * np.pi * eps * eps * cap.shape[0] / n_cap / cap.shape[0]
        pts.append(v + eps * cap)
        nrm.append(-cap)
        wts.append(np.full(cap.shape[0], share))
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


# ---------------------------------------------------------------------------
# low-level distance kernels shared with the projection module
# ---------------------------------------------------------------------------

# (node, element) pairs per 2D kernel block: keeps the (n, E) temporaries
# near a megabyte whatever the element count
_ELEMENT_PAIRS_PER_BLOCK = 2 ** 16


def _plane_norm(px, py, qx, qy, out, tmp):
    """sqrt((px - qx)^2 + (py - qy)^2) over (n, m) planes, into out;
    out and tmp may be qx and qy."""
    np.subtract(px, qx, out=out)
    out *= out
    np.subtract(py, qy, out=tmp)
    tmp *= tmp
    out += tmp
    return np.sqrt(out, out=out)


def _segment_distances(points, seg_a, seg_b):
    """Distances and clamp codes from points (n, 2) to segments (m, 2).

    Returns (dist (n, m), clamp (n, m)); clamp is -1 where the foot is the
    segment start, +1 where it is the end and 0 between.  The work runs on
    (n, m) coordinate planes, in place, with t = (wx dx + wy dy) / |d|^2
    clipped to [0, 1] and dist = sqrt(ex^2 + ey^2) for e = p - (a + t d).
    That order of operations is fixed: np.hypot, vecdot or the expanded
    |w|^2 - 2t w.d + t^2 |d|^2 round differently, and every distance
    field, mask and digest downstream reads these bits.  In place, three
    planes are live at most; fresh temporaries ran about a quarter slower.
    """
    d = seg_b - seg_a
    L2 = np.einsum("md,md->m", d, d)
    L2 = np.where(L2 <= 0.0, 1.0, L2)
    px, py = points[:, :1], points[:, 1:]
    ax, ay, dx, dy = seg_a[:, 0], seg_a[:, 1], d[:, 0], d[:, 1]
    ex = px - ax
    ey = py - ay
    t = ex * dx
    ey *= dy
    t += ey
    t /= L2
    np.clip(t, 0.0, 1.0, out=t)
    clamp = (t == 1.0).astype(np.int8) - (t == 0.0)
    # the feet a + t d
    np.multiply(t, dx, out=ex)
    ex += ax
    np.multiply(t, dy, out=ey)
    ey += ay
    return _plane_norm(px, py, ex, ey, ex, ey), clamp


def _arc_distances(points, center, a0, sweep, e0, e1, radius):
    """Distances and clamp codes from points (n, 2) to CCW circular arcs.

    Arc k has centre center[k] and starts at angle a0[k], where its end
    point is e0[k], and sweeps by sweep[k] to e1[k].  Off its sector, or at
    its centre, a point's foot is the nearer end (-1 for e0, +1 for e1);
    on it the radial foot (0).  Returns (dist (n, m), clamp (n, m)).  Like
    _segment_distances it works on (n, m) coordinate planes in place, and
    its order of operations is fixed: r = sqrt(rx^2 + ry^2), the sector
    angle from arctan2(ry, rx), and each end distance the same square
    root of summed squares (not np.hypot or vecdot, which round
    differently).
    """
    px, py = points[:, :1], points[:, 1:]
    rx = px - center[:, 0]
    ry = py - center[:, 1]
    local = np.arctan2(ry, rx)
    local -= a0
    np.remainder(local, 2.0 * np.pi, out=local)
    on_arc = local <= sweep
    rx *= rx
    ry *= ry
    rx += ry
    r = np.sqrt(rx, out=rx)
    on_arc &= r > 1e-300
    r -= radius
    np.abs(r, out=r)
    d0 = _plane_norm(px, py, e0[:, 0], e0[:, 1], ry, local)
    d1 = _plane_norm(px, py, e1[:, 0], e1[:, 1], np.empty_like(r), local)
    nearer0 = d0 <= d1
    np.copyto(d1, d0, where=nearer0)
    np.copyto(d1, r, where=on_arc)
    clamp = np.where(nearer0, np.int8(-1), np.int8(1))
    clamp[on_arc] = 0
    return d1, clamp


class _Cycle:
    """The boundary elements of a 2D polytope or offset, as arrays.

    Built once per shape.  In cycle order a polytope's element k is edge
    k, from seg_a[k] to seg_b[k]; an offset's element 2i is the CCW arc of
    the given radius about base vertex center[i], from angle a0[i] (end
    point e0[i]) through sweep[i] (to e1[i]), and element 2i + 1 is pushed
    edge i.  A polytope has no arcs.
    """

    __slots__ = ("seg_a", "seg_b", "center", "a0", "sweep", "e0", "e1",
                 "radius", "size")

    def __init__(self, seg_a, seg_b, arcs=(), radius=0.0):
        self.seg_a, self.seg_b, self.radius = seg_a, seg_b, radius
        self.center = np.array([c for c, _, _ in arcs]).reshape(-1, 2)
        self.a0 = np.array([a for _, a, _ in arcs])
        self.sweep = np.array([w for _, _, w in arcs])
        self.e0 = self.center + radius * np.array(
            [[math.cos(a), math.sin(a)] for _, a, _ in arcs]).reshape(-1, 2)
        self.e1 = self.center + radius * np.array(
            [[math.cos(a + w), math.sin(a + w)]
             for _, a, w in arcs]).reshape(-1, 2)
        self.size = seg_a.shape[0] + self.center.shape[0]


def _element_distance_blocks(shape, points):
    """The (node, element) distance matrix of a 2D polytope or offset
    boundary, one block of nodes at a time.

    Elements run in cycle order (_Cycle).  Yields (rows, dist, clamp) over
    blocks of about _ELEMENT_PAIRS_PER_BLOCK (node, element) pairs: rows
    slices points, dist (n, E) holds the element distances and clamp
    (n, E) the element clamp codes.
    """
    cyc = shape._cycle
    block = max(1, _ELEMENT_PAIRS_PER_BLOCK // cyc.size)
    for lo in range(0, points.shape[0], block):
        rows = slice(lo, lo + block)
        p = points[rows]
        if cyc.radius:
            dist = np.empty((p.shape[0], cyc.size))
            clamp = np.empty((p.shape[0], cyc.size), dtype=np.int8)
            dist[:, 0::2], clamp[:, 0::2] = _arc_distances(
                p, cyc.center, cyc.a0, cyc.sweep, cyc.e0, cyc.e1, cyc.radius)
            dist[:, 1::2], clamp[:, 1::2] = _segment_distances(p, cyc.seg_a,
                                                               cyc.seg_b)
        else:
            dist, clamp = _segment_distances(p, cyc.seg_a, cyc.seg_b)
        yield rows, dist, clamp


def _norm(v):
    """Row norms as the square root of vecdot, the arithmetic of
    np.linalg.norm on one vector."""
    return np.sqrt(np.vecdot(v, v))


def _segment_query(p, a, b):
    """_element_query on segments from a[i] to b[i]."""
    d = b - a
    t = np.vecdot(p - a, d) / np.vecdot(d, d)
    foot = a + t[:, None] * d
    lo, hi = t <= 0.0, t >= 1.0
    foot[lo], foot[hi] = a[lo], b[hi]
    return _norm(p - foot), foot, hi.view(np.int8) - lo.view(np.int8)


def _element_query(shape, points, elem):
    """Distance, foot and clamp code of point i on element elem[i] of a 2D
    polytope or offset boundary (cycle order, _Cycle).

    A segment's foot is its start (clamp -1) or end (+1) where the
    projection parameter leaves (0, 1), else the foot between (0).  An
    arc's foot is the radial one on its sector (0), else the nearer end,
    e0 on a tie (-1 for e0, +1 for e1); at its centre every arc point is
    equidistant and the foot is e0 at the radius (-1).  Dots are vecdot
    and the sector angle is np.arctan2, so each row is the arithmetic of
    one point on one element.  Returns (dist (n,), foot (n, 2), clamp
    (n,) int8).
    """
    cyc = shape._cycle
    if not cyc.radius:
        return _segment_query(points, cyc.seg_a[elem], cyc.seg_b[elem])
    arc, k = elem % 2 == 0, elem // 2
    # every row on pushed edge k, then the arc rows written over it: on a
    # few elements one scatter is cheaper than splitting the segment rows
    dist, foot, clamp = _segment_query(points, cyc.seg_a[k], cyc.seg_b[k])
    k, p = k[arc], points[arc]
    c, e0, e1, r = cyc.center[k], cyc.e0[k], cyc.e1[k], cyc.radius
    rel = p - c
    rho = _norm(rel)
    centre = rho <= 1e-300
    local = (np.arctan2(rel[:, 1], rel[:, 0]) - cyc.a0[k]) % (2.0 * np.pi)
    on = (local <= cyc.sweep[k]) & ~centre
    d0, d1 = _norm(p - e0), _norm(p - e1)
    near0 = (d0 <= d1) | centre
    end_dist = np.where(near0, d0, d1)
    end_dist[centre] = r
    radial = c + r * rel / np.where(centre, 1.0, rho)[:, None]
    dist[arc] = np.where(on, np.abs(rho - r), end_dist)
    foot[arc] = np.where(on[:, None], radial,
                         np.where(near0[:, None], e0, e1))
    clamp[arc] = np.where(on, 0, np.where(near0, -1, 1))
    return dist, foot, clamp


def _boundary_distance_2d(shape, points):
    """Row minimum of the element distance matrix, block by block."""
    out = np.empty(points.shape[0])
    for rows, dist, _ in _element_distance_blocks(shape, points):
        out[rows] = dist.min(axis=1)
    return out


def _closest_point_triangles(points, tri_a, tri_b, tri_c):
    """Exact closest points from points (n, 3) to triangles (m, 3).

    Returns the feet, shape (n, m, 3).  Each (point, triangle) pair runs
    Ericson's Voronoi-region tests in a fixed order with the same
    arithmetic, so a pair's foot does not depend on the other pairs.
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


# point-triangle pairs per kernel call: keeps the (n, m, 3) temporaries at a
# few MB whatever the facet count
TRIANGLE_PAIRS_PER_BLOCK = 2 ** 14


def _polytope_boundary_distance_3d(poly, points):
    tri = poly.triangles()
    block = max(1, TRIANGLE_PAIRS_PER_BLOCK // tri[0].shape[0])
    out = np.empty(points.shape[0])
    for s in range(0, points.shape[0], block):
        p = points[s:s + block]
        feet = _closest_point_triangles(p, *tri)
        out[s:s + block] = np.min(
            np.linalg.norm(feet - p[:, None, :], axis=2), axis=1)
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
            return GraphHypersurface(spec["alpha"], spec["base"], spec["terms"],
                                     tuple(spec.get("window", (0.0, 1.0))),
                                     spec.get("dim", 2))
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
